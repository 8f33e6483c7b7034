package sbst

import (
	"fmt"
	"math"

	"potsim/internal/sim"
	"potsim/internal/tech"
)

// Phase is one section of an SBST routine targeting a functional unit.
// Coverage is resolved by fault class: march-style patterns excel at
// stuck-at defects, while path-sensitising phases target delay defects
// (and only prove anything when run at speed).
type Phase struct {
	Name     string
	Cycles   int64   // clock cycles at the granted frequency
	Activity float64 // switching activity while the phase runs (can be >1)
	// CoverageSA is the stuck-at-class fault coverage of this phase.
	CoverageSA float64
	// CoverageDelay is the delay-class fault coverage of this phase.
	CoverageDelay float64
	Words         int // response words compacted into the MISR
}

// Routine is an SBST program: an ordered list of phases. EndsSession
// marks the routine (or the final segment of a segmented routine) whose
// completion concludes a full test session — the point at which the
// scheduler credits the core's test interval.
type Routine struct {
	ID          int
	Name        string
	Phases      []Phase
	EndsSession bool
}

// TotalCycles returns the cycle count of the whole routine.
func (r Routine) TotalCycles() int64 {
	var sum int64
	for _, p := range r.Phases {
		sum += p.Cycles
	}
	return sum
}

// CoverageSA returns the total stuck-at coverage of a complete run:
// phases cover independent slices of the remaining fault population, so
// cov = 1 - prod(1 - c_i).
func (r Routine) CoverageSA() float64 {
	miss := 1.0
	for _, p := range r.Phases {
		miss *= 1 - clamp01(p.CoverageSA)
	}
	return 1 - miss
}

// CoverageDelay returns the total delay-fault coverage of a complete run
// (achieved only when the routine executes at nominal speed).
func (r Routine) CoverageDelay() float64 {
	miss := 1.0
	for _, p := range r.Phases {
		miss *= 1 - clamp01(p.CoverageDelay)
	}
	return 1 - miss
}

// Duration returns the routine's run time at clock frequency f.
func (r Routine) Duration(fHz float64) sim.Time {
	if fHz <= 0 {
		return math.MaxInt64
	}
	return sim.FromSeconds(float64(r.TotalCycles()) / fHz)
}

// MeanActivity returns the cycle-weighted average switching activity,
// the figure used for power admission before a routine starts.
func (r Routine) MeanActivity() float64 {
	var cyc int64
	var weighted float64
	for _, p := range r.Phases {
		cyc += p.Cycles
		weighted += float64(p.Cycles) * p.Activity
	}
	if cyc == 0 {
		return 0
	}
	return weighted / float64(cyc)
}

// Validate checks routine consistency.
func (r Routine) Validate() error {
	if len(r.Phases) == 0 {
		return fmt.Errorf("sbst: routine %q has no phases", r.Name)
	}
	for i, p := range r.Phases {
		if p.Cycles <= 0 {
			return fmt.Errorf("sbst: routine %q phase %d has non-positive cycles", r.Name, i)
		}
		if p.CoverageSA < 0 || p.CoverageSA > 1 || p.CoverageDelay < 0 || p.CoverageDelay > 1 {
			return fmt.Errorf("sbst: routine %q phase %d coverage out of range", r.Name, i)
		}
		if p.Activity < 0 {
			return fmt.Errorf("sbst: routine %q phase %d negative activity", r.Name, i)
		}
		if p.Words <= 0 {
			return fmt.Errorf("sbst: routine %q phase %d needs response words", r.Name, i)
		}
	}
	return nil
}

// Library returns the standard routine set. SBST routines are
// deliberately power-hungry (high switching activity) — that is exactly
// why the paper needs power-aware admission before launching them.
func Library() []Routine {
	return []Routine{
		{
			ID: 0, Name: "march-quick", EndsSession: true,
			Phases: []Phase{
				{Name: "regfile-march", Cycles: 60_000, Activity: 0.95, CoverageSA: 0.45, CoverageDelay: 0.05, Words: 256},
				{Name: "alu-patterns", Cycles: 80_000, Activity: 1.10, CoverageSA: 0.40, CoverageDelay: 0.12, Words: 256},
			},
		},
		{
			ID: 1, Name: "functional-full", EndsSession: true,
			Phases: []Phase{
				{Name: "regfile-march", Cycles: 90_000, Activity: 0.95, CoverageSA: 0.42, CoverageDelay: 0.06, Words: 512},
				{Name: "alu-patterns", Cycles: 120_000, Activity: 1.15, CoverageSA: 0.45, CoverageDelay: 0.15, Words: 512},
				{Name: "mul-div", Cycles: 110_000, Activity: 1.20, CoverageSA: 0.35, CoverageDelay: 0.18, Words: 384},
				{Name: "branch-pipeline", Cycles: 70_000, Activity: 1.00, CoverageSA: 0.30, CoverageDelay: 0.20, Words: 256},
				{Name: "lsu-cache", Cycles: 100_000, Activity: 0.90, CoverageSA: 0.32, CoverageDelay: 0.10, Words: 384},
			},
		},
		{
			ID: 2, Name: "path-delay", EndsSession: true,
			Phases: []Phase{
				{Name: "critical-paths", Cycles: 140_000, Activity: 1.25, CoverageSA: 0.12, CoverageDelay: 0.60, Words: 512},
				{Name: "corner-toggles", Cycles: 60_000, Activity: 1.30, CoverageSA: 0.08, CoverageDelay: 0.30, Words: 256},
			},
		},
	}
}

// ByName finds a library routine.
func ByName(name string) (Routine, error) {
	for _, r := range Library() {
		if r.Name == name {
			return r, nil
		}
	}
	return Routine{}, fmt.Errorf("sbst: unknown routine %q", name)
}

// AbortPolicy controls what happens to progress when a running test is
// preempted by the mapper.
type AbortPolicy int

const (
	// DiscardProgress restarts the routine from scratch next time (the
	// conservative DATE'15 behaviour: a partial test proves nothing).
	DiscardProgress AbortPolicy = iota
	// ResumePhase keeps completed phases and restarts only the
	// interrupted phase (the TC'16 refinement).
	ResumePhase
)

// Exec is one in-flight execution of a routine on a core at a fixed
// operating point.
type Exec struct {
	Routine Routine
	Core    int
	Level   int // DVFS level index the test runs at
	Point   tech.OperatingPoint
	Started sim.Time

	phase     int
	cycleInPh int64
	misr      MISR
	// golden is the fault-free signature of the completed phases: what
	// misr holds when no absorbed response was corrupted.
	golden MISR //potlint:nosnap derived: replayed from Routine, Level and phase by RestoreExec
	gen    ResponseGenerator
	// accumulated coverage of completed phases, per fault class, in
	// miss-product form.
	coveredSA    float64 //potlint:nosnap derived: covered = 1 - miss, recomputed by RestoreExec
	coveredDelay float64 //potlint:nosnap derived: covered = 1 - miss, recomputed by RestoreExec
	missSA       float64
	missDelay    float64
	doneWords    int
	faultWords   int        // response words corrupted by an excited fault
	memo         *PhaseMemo //potlint:nosnap shared cache of pure compactions, owned by the caller; a restored exec runs without one
}

// NewExec starts a routine execution. memo, when not nil, serves the
// fault-free phase compactions; nil compacts every word.
func NewExec(r Routine, core, level int, pt tech.OperatingPoint, now sim.Time, memo *PhaseMemo) *Exec {
	return &Exec{
		Routine: r, Core: core, Level: level, Point: pt, Started: now,
		misr: *NewMISR(), golden: *NewMISR(), gen: *NewResponseGenerator(r.ID, 0, level),
		missSA: 1, missDelay: 1, memo: memo,
	}
}

// PhaseMemo remembers fault-free phase compactions. A phase that ends
// with no pending fault word and the signature equal to the golden one
// absorbs the same words into both registers, so their common end state
// and the generator's are a pure function of the key: both start states
// and the word count. The zero value is ready; a memo serves one
// simulation and is not safe for concurrent use. It holds one entry per
// (routine, level, phase) run fault-free, as those fix the key.
type PhaseMemo struct {
	ends map[phaseStart][2]uint32 // register and generator end states
}

type phaseStart struct {
	golden, gen uint32
	words       int
}

// compact absorbs words fault-free responses from gen into sig and
// returns both end states, from the memo when it holds them.
func (m *PhaseMemo) compact(sig MISR, gen ResponseGenerator, words int) (MISR, ResponseGenerator) {
	k := phaseStart{golden: sig.state, gen: gen.state, words: words}
	if end, ok := m.ends[k]; ok {
		return MISR{state: end[0]}, ResponseGenerator{state: end[1]}
	}
	for w := 0; w < words; w++ {
		sig.Absorb(gen.Next())
	}
	if m.ends == nil {
		m.ends = make(map[phaseStart][2]uint32)
	}
	m.ends[k] = [2]uint32{sig.state, gen.state}
	return sig, gen
}

// Done reports whether every phase has completed.
func (e *Exec) Done() bool { return e.phase >= len(e.Routine.Phases) }

// Progress returns completed cycles over total cycles in [0,1].
func (e *Exec) Progress() float64 {
	total := e.Routine.TotalCycles()
	if total == 0 {
		return 1
	}
	var done int64
	for i := 0; i < e.phase && i < len(e.Routine.Phases); i++ {
		done += e.Routine.Phases[i].Cycles
	}
	done += e.cycleInPh
	return float64(done) / float64(total)
}

// CurrentActivity returns the switching activity of the phase in flight,
// or zero when the execution is complete.
func (e *Exec) CurrentActivity() float64 {
	if e.Done() {
		return 0
	}
	return e.Routine.Phases[e.phase].Activity
}

// CoverageSA returns the stuck-at coverage accumulated by completed
// phases.
func (e *Exec) CoverageSA() float64 { return e.coveredSA }

// CoverageDelay returns the delay-fault coverage accumulated by completed
// phases (before the at-speed derating).
func (e *Exec) CoverageDelay() float64 { return e.coveredDelay }

// Coverage returns the stuck-at coverage; retained as the headline
// scalar for reports and logs.
func (e *Exec) Coverage() float64 { return e.coveredSA }

// CorruptResponses marks that an excited fault perturbs the response
// stream; n response words will be XOR-flipped before compaction.
func (e *Exec) CorruptResponses(n int) {
	if n > 0 {
		e.faultWords += n
	}
}

// Advance executes the routine for dt of wall time at the granted
// frequency, absorbing responses phase by phase. It returns true when the
// routine completes during this interval.
func (e *Exec) Advance(dt sim.Time) bool {
	if e.Done() {
		return true
	}
	budget := int64(dt.Seconds() * e.Point.FreqHz)
	for budget > 0 && !e.Done() {
		ph := &e.Routine.Phases[e.phase]
		remaining := ph.Cycles - e.cycleInPh
		step := remaining
		if budget < step {
			step = budget
		}
		e.cycleInPh += step
		budget -= step
		if e.cycleInPh >= ph.Cycles {
			e.finishPhase(ph)
		}
	}
	return e.Done()
}

// finishPhase compacts the phase's responses and accrues coverage.
func (e *Exec) finishPhase(ph *Phase) {
	if e.memo != nil && e.faultWords == 0 && e.misr == e.golden {
		e.golden, e.gen = e.memo.compact(e.golden, e.gen, ph.Words)
		e.misr = e.golden
	} else {
		for w := 0; w < ph.Words; w++ {
			word := e.gen.Next()
			e.golden.Absorb(word)
			if e.faultWords > 0 {
				word ^= 0x5A5A5A5A // fault-perturbed response
				e.faultWords--
			}
			e.misr.Absorb(word)
		}
	}
	e.doneWords += ph.Words
	e.missSA *= 1 - clamp01(ph.CoverageSA)
	e.missDelay *= 1 - clamp01(ph.CoverageDelay)
	e.coveredSA = 1 - e.missSA
	e.coveredDelay = 1 - e.missDelay
	e.phase++
	e.cycleInPh = 0
	if !e.Done() {
		e.gen = *NewResponseGenerator(e.Routine.ID, e.phase, e.Level)
	}
}

// SignatureMatches compares the accumulated signature against the golden
// signature for the completed prefix of phases. A perturbed response
// stream yields a mismatch (modulo ~2^-32 aliasing).
func (e *Exec) SignatureMatches() bool { return e.misr.state == e.golden.state }

// goldenPrefix is the fault-free signature of r's first n phases at level.
func goldenPrefix(r Routine, level, n int) MISR {
	m := *NewMISR()
	for i := 0; i < n; i++ {
		g := NewResponseGenerator(r.ID, i, level)
		for w := 0; w < r.Phases[i].Words; w++ {
			m.Absorb(g.Next())
		}
	}
	return m
}

// Abort applies the policy and returns the execution to reuse (nil when
// the policy discards everything).
func (e *Exec) Abort(policy AbortPolicy) *Exec {
	switch policy {
	case ResumePhase:
		// Rewind the interrupted phase only.
		e.cycleInPh = 0
		if !e.Done() {
			e.gen = *NewResponseGenerator(e.Routine.ID, e.phase, e.Level)
		}
		return e
	default:
		return nil
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Segment splits a routine into consecutive sub-routines of at most
// maxCycles each — the TC'16 refinement that chops long test programs
// into preemption-friendly chunks so a busy system still completes test
// work between workload bursts. Coverage is preserved across the whole
// segment sequence: a phase split into k parts gives each part the
// k-th-root share of its miss probability, so the product over all
// segments equals the original. Segment IDs derive from the parent
// (parent*1000 + index) so each segment has its own golden signatures.
// maxCycles <= 0 or a routine already within the bound returns the
// routine unchanged.
func Segment(r Routine, maxCycles int64) []Routine {
	if maxCycles <= 0 || r.TotalCycles() <= maxCycles {
		r.EndsSession = true
		return []Routine{r}
	}
	// Split oversized phases into equal sub-phases within the bound.
	var parts []Phase
	for _, ph := range r.Phases {
		k := int((ph.Cycles + maxCycles - 1) / maxCycles)
		if k < 1 {
			k = 1
		}
		for i := 0; i < k; i++ {
			sub := ph
			sub.Cycles = ph.Cycles / int64(k)
			if i == k-1 {
				sub.Cycles = ph.Cycles - sub.Cycles*int64(k-1)
			}
			sub.CoverageSA = 1 - math.Pow(1-clamp01(ph.CoverageSA), 1/float64(k))
			sub.CoverageDelay = 1 - math.Pow(1-clamp01(ph.CoverageDelay), 1/float64(k))
			sub.Words = ph.Words / k
			if sub.Words < 1 {
				sub.Words = 1
			}
			if k > 1 {
				sub.Name = fmt.Sprintf("%s.%d", ph.Name, i)
			}
			parts = append(parts, sub)
		}
	}
	// Greedily pack sub-phases into segments within the bound.
	var segs []Routine
	var cur []Phase
	var curCycles int64
	flush := func() {
		if len(cur) == 0 {
			return
		}
		segs = append(segs, Routine{
			ID:     r.ID*1000 + len(segs),
			Name:   fmt.Sprintf("%s/seg%d", r.Name, len(segs)),
			Phases: cur,
		})
		cur = nil
		curCycles = 0
	}
	for _, p := range parts {
		if curCycles+p.Cycles > maxCycles {
			flush()
		}
		cur = append(cur, p)
		curCycles += p.Cycles
	}
	flush()
	segs[len(segs)-1].EndsSession = true // the last segment closes the session
	return segs
}

// SegmentLibrary applies Segment to every routine of a set, flattening
// the result so a scheduler's routine rotation walks all segments of all
// routines in order.
func SegmentLibrary(routines []Routine, maxCycles int64) []Routine {
	if maxCycles <= 0 {
		return routines
	}
	var out []Routine
	for _, r := range routines {
		out = append(out, Segment(r, maxCycles)...)
	}
	return out
}
