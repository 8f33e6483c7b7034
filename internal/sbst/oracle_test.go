package sbst

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"

	"potsim/internal/sim"
)

// absorbSerial is the MISR by definition: XOR the word into the state,
// then shift the Galois LFSR 32 times, folding DefaultPolynomial in
// whenever a one drops out. Absorb must agree with it on every state
// and word.
func absorbSerial(state, word uint32) uint32 {
	state ^= word
	for i := 0; i < 32; i++ {
		if state&1 != 0 {
			state = state>>1 ^ DefaultPolynomial
		} else {
			state >>= 1
		}
	}
	return state
}

// FuzzMISRMatchesSerial checks the table-driven register against the
// serial one from a random start state over a random word sequence.
func FuzzMISRMatchesSerial(f *testing.F) {
	f.Add(uint32(0xFFFFFFFF), []byte{})
	f.Add(uint32(0), []byte{1, 0, 0, 0, 0x80, 0, 0, 0})
	f.Add(uint32(0xDEADBEEF), []byte("phase responses, four bytes a word"))
	f.Fuzz(func(t *testing.T, start uint32, raw []byte) {
		m, want := MISR{state: start}, start
		for i := 0; i+4 <= len(raw); i += 4 {
			w := binary.LittleEndian.Uint32(raw[i:])
			m.Absorb(w)
			want = absorbSerial(want, w)
			if m.Signature() != want {
				t.Fatalf("start %08x, word %d (%08x): table state %08x, serial %08x",
					start, i/4, w, m.Signature(), want)
			}
		}
	})
}

// replayedMatch is SignatureMatches by definition: re-derive the
// fault-free signature of e's completed phases with the serial register
// and compare it with the signature e accumulated.
func replayedMatch(e *Exec) bool {
	golden := uint32(0xFFFFFFFF)
	for i := 0; i < e.phase; i++ {
		g := NewResponseGenerator(e.Routine.ID, i, e.Level)
		for w := 0; w < e.Routine.Phases[i].Words; w++ {
			golden = absorbSerial(golden, g.Next())
		}
	}
	return golden == e.misr.Signature()
}

// runChecked advances e to completion in steps of dt, checking after
// every step that SignatureMatches equals the replayed golden prefix,
// and returns its final answer.
func runChecked(t *testing.T, name string, e *Exec, dt sim.Time) bool {
	t.Helper()
	for step := 0; ; step++ {
		done := e.Advance(dt)
		if got, want := e.SignatureMatches(), replayedMatch(e); got != want {
			t.Fatalf("%s, step %d (phase %d): SignatureMatches %v, replayed golden prefix %v",
				name, step, e.phase, got, want)
		}
		if done {
			return e.SignatureMatches()
		}
	}
}

func TestSignatureMatchesEqualsReplayedGolden(t *testing.T) {
	full, _ := ByName("functional-full") // five phases
	quick0, _ := ByName("march-quick")   // 256 + 256 words
	const dt = 23 * sim.Microsecond      // 46k cycles: phases end mid-step
	newExec := func(r Routine) *Exec { return NewExec(r, 1, 2, pt(2e9), 0, nil) }

	t.Run("fault-free", func(t *testing.T) {
		if !runChecked(t, "fault-free", newExec(full), dt) {
			t.Error("fault-free run mismatched its golden signature")
		}
	})

	t.Run("corruption spans a phase boundary", func(t *testing.T) {
		e := newExec(quick0)
		e.CorruptResponses(quick0.Phases[0].Words + 10) // 10 spill into phase 1
		if runChecked(t, "spanning corruption", e, dt) {
			t.Error("corrupted run matched its golden signature")
		}
	})

	t.Run("abort with ResumePhase", func(t *testing.T) {
		e := newExec(full)
		e.Advance(sim.FromSeconds(float64(full.Phases[0].Cycles+full.Phases[1].Cycles/2) / 2e9))
		if e.phase != 1 {
			t.Fatalf("setup: in phase %d, want 1", e.phase)
		}
		if got, want := e.SignatureMatches(), replayedMatch(e); got != want || !got {
			t.Fatalf("before abort: SignatureMatches %v, replayed %v", got, want)
		}
		if !runChecked(t, "resumed", e.Abort(ResumePhase), dt) {
			t.Error("resumed fault-free run mismatched its golden signature")
		}
	})

	t.Run("restore mid-routine", func(t *testing.T) {
		for _, corrupt := range []int{0, 3} {
			e := newExec(full)
			e.Advance(sim.FromSeconds(float64(full.Phases[0].Cycles+full.Phases[1].Cycles+5000) / 2e9))
			e.CorruptResponses(corrupt) // lands in phase 2, after the restore
			blob, err := json.Marshal(e.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var st ExecState
			if err := json.Unmarshal(blob, &st); err != nil {
				t.Fatal(err)
			}
			r, err := RestoreExec(st)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; ; step++ {
				if r.SignatureMatches() != e.SignatureMatches() || r.SignatureMatches() != replayedMatch(r) {
					t.Fatalf("corrupt=%d step %d: restored %v, uninterrupted %v, replayed %v",
						corrupt, step, r.SignatureMatches(), e.SignatureMatches(), replayedMatch(r))
				}
				if d1, d2 := e.Advance(dt), r.Advance(dt); d1 != d2 {
					t.Fatalf("corrupt=%d step %d: completion drift", corrupt, step)
				} else if d1 {
					break
				}
			}
			if r.SignatureMatches() != (corrupt == 0) || r.SignatureMatches() != replayedMatch(r) {
				t.Errorf("corrupt=%d: final answer %v", corrupt, r.SignatureMatches())
			}
		}
	})

	// Segment reuses the IDs parent*1000+i at every size, so the same ID
	// names different phase lists here; each must match its own golden.
	t.Run("segments at two sizes", func(t *testing.T) {
		for _, size := range []int64{60_000, 100_000} {
			for i, seg := range Segment(full, size) {
				e := newExec(seg)
				e.CorruptResponses(i % 2)
				if got := runChecked(t, seg.Name, e, dt); got != (i%2 == 0) {
					t.Errorf("size %d segment %s (ID %d): final answer %v", size, seg.Name, seg.ID, got)
				}
			}
		}
	})
}

// TestExecPhaseCompletionZeroAlloc pins the absorb path: once an Exec
// exists, running it across phase boundaries, with and without
// corrupted responses, and checking its signature allocate nothing,
// both without a memo and with one that already holds the routine.
func TestExecPhaseCompletionZeroAlloc(t *testing.T) {
	const runs = 20
	full, _ := ByName("functional-full")
	var warm PhaseMemo
	for w := NewExec(full, 0, 2, pt(2e9), 0, &warm); !w.Advance(sim.Millisecond); {
	}
	for _, memo := range []*PhaseMemo{nil, &warm} {
		for _, corrupt := range []int{0, 300} {
			execs := make([]*Exec, runs+1) // AllocsPerRun adds one warm-up call
			for i := range execs {
				execs[i] = NewExec(full, 0, 2, pt(2e9), 0, memo)
			}
			next, matches := 0, 0
			avg := testing.AllocsPerRun(runs, func() {
				e := execs[next]
				next++
				e.CorruptResponses(corrupt)
				for !e.Advance(37 * sim.Microsecond) {
					e.SignatureMatches()
				}
				if e.SignatureMatches() {
					matches++
				}
			})
			if avg != 0 {
				t.Errorf("memo=%v corrupt=%d: %.2f allocations per routine run, want 0", memo != nil, corrupt, avg)
			}
			want := 0
			if corrupt == 0 {
				want = runs + 1
			}
			if matches != want {
				t.Errorf("memo=%v corrupt=%d: %d of %d runs matched their golden signature, want %d", memo != nil, corrupt, matches, runs+1, want)
			}
		}
	}
}

// lockstep advances a memoized exec and a memo-less twin by dt until
// both finish, failing when their snapshots or signature verdicts
// differ after any step. corruptAt, when positive, injects that many
// fault words into both before that step.
func lockstep(t *testing.T, name string, fast, slow *Exec, dt sim.Time, corruptAt, corrupt int) {
	t.Helper()
	for step := 0; ; step++ {
		if step == corruptAt {
			fast.CorruptResponses(corrupt)
			slow.CorruptResponses(corrupt)
		}
		d1, d2 := fast.Advance(dt), slow.Advance(dt)
		if d1 != d2 || fast.SignatureMatches() != slow.SignatureMatches() ||
			!reflect.DeepEqual(fast.Snapshot(), slow.Snapshot()) {
			t.Fatalf("%s step %d: memoized done=%v match=%v %+v; memo-less done=%v match=%v %+v",
				name, step, d1, fast.SignatureMatches(), fast.Snapshot(), d2, slow.SignatureMatches(), slow.Snapshot())
		}
		if d1 {
			return
		}
	}
}

// TestPhaseMemoMatchesLoop runs one memo through fault-free, corrupted,
// aborted-and-resumed and segmented executions, each beside a memo-less
// twin, so later runs hit entries earlier ones filled.
func TestPhaseMemoMatchesLoop(t *testing.T) {
	full, _ := ByName("functional-full")
	quick0, _ := ByName("march-quick")
	const dt = 23 * sim.Microsecond
	var memo PhaseMemo
	pair := func(r Routine, level int) (*Exec, *Exec) {
		return NewExec(r, 1, level, pt(2e9), 0, &memo), NewExec(r, 1, level, pt(2e9), 0, nil)
	}
	for pass := 0; pass < 2; pass++ { // the second pass hits what the first filled
		for _, r := range []Routine{full, quick0} {
			for _, level := range []int{0, 3, 7} {
				f, s := pair(r, level)
				lockstep(t, r.Name, f, s, dt, -1, 0)
				for _, c := range []struct{ at, words int }{{0, 1}, {0, r.Phases[0].Words + 10}, {5, 2}, {9, 1}} {
					f, s := pair(r, level)
					lockstep(t, r.Name+" corrupted", f, s, dt, c.at, c.words)
				}
			}
		}
	}
	// ResumePhase aborts mid-phase, after a fault-free and after a
	// corrupted first phase.
	for _, corrupt := range []int{0, 4} {
		f, s := pair(full, 2)
		f.CorruptResponses(corrupt)
		s.CorruptResponses(corrupt)
		half := sim.FromSeconds(float64(full.Phases[0].Cycles+full.Phases[1].Cycles/2) / 2e9)
		f.Advance(half)
		s.Advance(half)
		lockstep(t, "resumed", f.Abort(ResumePhase), s.Abort(ResumePhase), dt, -1, 0)
	}
	// Segment reuses the IDs parent*1000+i at every size, so one memo
	// sees the same ID with different phase lists.
	for _, size := range []int64{60_000, 100_000, 60_000} {
		for i, seg := range Segment(full, size) {
			f, s := pair(seg, 3)
			lockstep(t, seg.Name, f, s, dt, 0, i%2)
		}
	}
}
