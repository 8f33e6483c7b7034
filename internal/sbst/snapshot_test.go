package sbst

import (
	"encoding/json"
	"testing"

	"potsim/internal/sim"
	"potsim/internal/tech"
)

// A suspended mid-phase execution must restore cycle- and
// signature-exact: running the original and the restored copy to
// completion yields identical signatures, coverage and word counts.
func TestExecSnapshotMidPhaseRoundTrip(t *testing.T) {
	rtn := Library()[1] // functional-full: 5 phases
	pt := tech.Default().OperatingPoints(4)[2]
	e := NewExec(rtn, 3, 2, pt, 5*sim.Millisecond, nil)
	e.CorruptResponses(2) // pending fault perturbation must survive too
	// Advance partway into the routine (not on a phase boundary).
	if done := e.Advance(40 * sim.Microsecond); done {
		t.Fatal("routine finished too early for a mid-phase test")
	}
	if e.Progress() == 0 {
		t.Fatal("routine made no progress")
	}

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
	if r.Progress() != e.Progress() || r.CurrentActivity() != e.CurrentActivity() {
		t.Fatalf("restored progress %v/%v differs from %v/%v",
			r.Progress(), r.CurrentActivity(), e.Progress(), e.CurrentActivity())
	}
	// Drive both to completion in identical small steps.
	for !e.Done() || !r.Done() {
		d1 := e.Advance(30 * sim.Microsecond)
		d2 := r.Advance(30 * sim.Microsecond)
		if d1 != d2 {
			t.Fatal("completion drift between original and restored exec")
		}
	}
	if e.misr.Signature() != r.misr.Signature() {
		t.Fatalf("signatures diverged: %08x vs %08x", e.misr.Signature(), r.misr.Signature())
	}
	if e.CoverageSA() != r.CoverageSA() || e.CoverageDelay() != r.CoverageDelay() {
		t.Fatal("coverage diverged")
	}
	if e.doneWords != r.doneWords || e.SignatureMatches() != r.SignatureMatches() {
		t.Fatal("word counts or signature verdict diverged")
	}
}

func TestRestoreExecValidation(t *testing.T) {
	if _, err := RestoreExec(ExecState{}); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	st := ExecState{Routine: Library()[0], Phase: 99}
	if _, err := RestoreExec(st); err == nil {
		t.Fatal("out-of-range phase accepted")
	}
	// A completed exec (phase == len) restores without a generator.
	done := ExecState{Routine: Library()[0], Phase: len(Library()[0].Phases), MissSA: 0.2, MissDelay: 0.5, MISR: 0xDEADBEEF}
	e, err := RestoreExec(done)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Done() || e.CoverageSA() != 0.8 {
		t.Fatalf("completed exec restored wrong: done=%v covSA=%v", e.Done(), e.CoverageSA())
	}
}
