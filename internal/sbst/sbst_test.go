package sbst

import (
	"math"
	"testing"
	"testing/quick"

	"potsim/internal/sim"
	"potsim/internal/tech"
)

func TestMISRDeterministic(t *testing.T) {
	a, b := NewMISR(), NewMISR()
	words := []uint32{1, 2, 3, 0xdeadbeef, 0}
	a.AbsorbAll(words)
	b.AbsorbAll(words)
	if a.Signature() != b.Signature() {
		t.Fatal("identical streams produced different signatures")
	}
}

func TestMISRDetectsSingleBitFlip(t *testing.T) {
	for bit := 0; bit < 32; bit++ {
		a, b := NewMISR(), NewMISR()
		a.Absorb(0x12345678)
		b.Absorb(0x12345678 ^ (1 << bit))
		a.Absorb(0x9abcdef0)
		b.Absorb(0x9abcdef0)
		if a.Signature() == b.Signature() {
			t.Errorf("bit %d flip aliased", bit)
		}
	}
}

func TestMISROrderSensitivity(t *testing.T) {
	a, b := NewMISR(), NewMISR()
	a.AbsorbAll([]uint32{1, 2})
	b.AbsorbAll([]uint32{2, 1})
	if a.Signature() == b.Signature() {
		t.Fatal("MISR should be order sensitive")
	}
}

// Property: flipping any word of any short stream changes the signature
// (aliasing is ~2^-32, so quick.Check should never find a collision).
func TestMISRNoEasyAliasingProperty(t *testing.T) {
	prop := func(words []uint32, idx uint8, flip uint32) bool {
		if len(words) == 0 || flip == 0 {
			return true
		}
		i := int(idx) % len(words)
		a, b := NewMISR(), NewMISR()
		a.AbsorbAll(words)
		words[i] ^= flip
		b.AbsorbAll(words)
		return a.Signature() != b.Signature()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestResponseGeneratorDistinctStreams(t *testing.T) {
	a := NewResponseGenerator(0, 0, 0)
	b := NewResponseGenerator(0, 0, 1) // different level
	c := NewResponseGenerator(0, 1, 0) // different phase
	same := 0
	for i := 0; i < 16; i++ {
		av := a.Next()
		if av == b.Next() {
			same++
		}
		if av == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("response streams overlap heavily (%d matches)", same)
	}
}

func TestGoldenSignatureStable(t *testing.T) {
	g1 := GoldenSignature(1, 0, 3, 256)
	g2 := GoldenSignature(1, 0, 3, 256)
	if g1 != g2 {
		t.Fatal("golden signature not stable")
	}
	if g1 == GoldenSignature(1, 0, 4, 256) {
		t.Fatal("different level should give different golden signature")
	}
}

func TestLibraryValidates(t *testing.T) {
	lib := Library()
	if len(lib) < 3 {
		t.Fatalf("library has %d routines, want >= 3", len(lib))
	}
	for _, r := range lib {
		if err := r.Validate(); err != nil {
			t.Errorf("routine %s invalid: %v", r.Name, err)
		}
		if cov := r.CoverageSA(); cov <= 0.1 || cov > 1 {
			t.Errorf("routine %s stuck-at coverage %v implausible", r.Name, cov)
		}
		if cov := r.CoverageDelay(); cov <= 0.05 || cov > 1 {
			t.Errorf("routine %s delay coverage %v implausible", r.Name, cov)
		}
		if r.MeanActivity() < 0.8 {
			t.Errorf("routine %s activity %v too low for an SBST stressor", r.Name, r.MeanActivity())
		}
	}
	// functional-full must out-cover march-quick on stuck-at faults, and
	// path-delay must dominate both on delay faults.
	quick0, _ := ByName("march-quick")
	full, _ := ByName("functional-full")
	delay, _ := ByName("path-delay")
	if full.CoverageSA() <= quick0.CoverageSA() {
		t.Error("full routine should out-cover quick routine on stuck-at")
	}
	if delay.CoverageDelay() <= full.CoverageDelay() {
		t.Error("path-delay routine should dominate on delay coverage")
	}
	if delay.CoverageSA() >= quick0.CoverageSA() {
		t.Error("path-delay routine should be weak on stuck-at coverage")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown routine accepted")
	}
}

func TestRoutineDuration(t *testing.T) {
	r, _ := ByName("march-quick")
	d := r.Duration(2e9)
	want := sim.FromSeconds(float64(r.TotalCycles()) / 2e9)
	if d != want {
		t.Errorf("Duration = %v, want %v", d, want)
	}
	dSlow := r.Duration(1e9)
	if dSlow <= d {
		t.Error("lower frequency should lengthen the test")
	}
}

func pt(fHz float64) tech.OperatingPoint {
	return tech.OperatingPoint{Voltage: 0.8, FreqHz: fHz}
}

func TestExecRunsToCompletion(t *testing.T) {
	r, _ := ByName("march-quick")
	e := NewExec(r, 3, 7, pt(2e9), 0, nil)
	if e.Done() {
		t.Fatal("fresh exec reports done")
	}
	total := r.Duration(2e9)
	if done := e.Advance(total / 2); done {
		t.Fatal("half the duration completed the routine")
	}
	if p := e.Progress(); p < 0.4 || p > 0.6 {
		t.Errorf("mid progress = %v, want ~0.5", p)
	}
	if !e.Advance(total) {
		t.Fatal("routine did not finish after full duration")
	}
	if math.Abs(e.CoverageSA()-r.CoverageSA()) > 1e-12 {
		t.Errorf("final SA coverage %v != routine %v", e.CoverageSA(), r.CoverageSA())
	}
	if math.Abs(e.CoverageDelay()-r.CoverageDelay()) > 1e-12 {
		t.Errorf("final delay coverage %v != routine %v", e.CoverageDelay(), r.CoverageDelay())
	}
	if !e.SignatureMatches() {
		t.Error("fault-free run should match golden signature")
	}
	if e.CurrentActivity() != 0 {
		t.Error("done exec should report zero activity")
	}
}

func TestExecSignatureMismatchOnFault(t *testing.T) {
	r, _ := ByName("march-quick")
	e := NewExec(r, 0, 0, pt(2e9), 0, nil)
	e.CorruptResponses(1)
	e.Advance(r.Duration(2e9) * 2)
	if !e.Done() {
		t.Fatal("routine did not finish")
	}
	if e.SignatureMatches() {
		t.Error("corrupted responses matched golden signature")
	}
}

func TestExecAbortDiscard(t *testing.T) {
	r, _ := ByName("functional-full")
	e := NewExec(r, 0, 0, pt(2e9), 0, nil)
	e.Advance(r.Duration(2e9) / 3)
	if got := e.Abort(DiscardProgress); got != nil {
		t.Error("DiscardProgress should return nil")
	}
}

func TestExecAbortResumePhase(t *testing.T) {
	r, _ := ByName("functional-full")
	fullDur := r.Duration(2e9)
	e := NewExec(r, 0, 0, pt(2e9), 0, nil)
	// Run past the first phase boundary and into the second phase.
	phase0 := sim.FromSeconds(float64(r.Phases[0].Cycles)/2e9) + 10*sim.Microsecond
	e.Advance(phase0)
	covBefore := e.Coverage()
	if covBefore <= 0 {
		t.Fatal("first phase coverage not accrued")
	}
	resumed := e.Abort(ResumePhase)
	if resumed == nil {
		t.Fatal("ResumePhase discarded the execution")
	}
	if resumed.Coverage() != covBefore {
		t.Error("resume lost completed-phase coverage")
	}
	// Finishing after resume still yields a matching signature.
	resumed.Advance(fullDur * 2)
	if !resumed.Done() {
		t.Fatal("resumed exec did not finish")
	}
	if !resumed.SignatureMatches() {
		t.Error("resumed fault-free run should match golden signature")
	}
}

func TestExecZeroFrequency(t *testing.T) {
	r, _ := ByName("march-quick")
	if r.Duration(0) != math.MaxInt64 {
		t.Error("zero frequency should yield infinite duration")
	}
	e := NewExec(r, 0, 0, pt(0), 0, nil)
	if e.Advance(sim.Second) {
		t.Error("test at zero frequency should make no progress")
	}
}

func TestExecProgressMonotone(t *testing.T) {
	r, _ := ByName("functional-full")
	e := NewExec(r, 0, 2, pt(1e9), 0, nil)
	prev := -1.0
	for i := 0; i < 50 && !e.Done(); i++ {
		e.Advance(20 * sim.Microsecond)
		p := e.Progress()
		if p < prev {
			t.Fatalf("progress went backwards: %v -> %v", prev, p)
		}
		prev = p
	}
}

func TestRoutineValidateRejectsBadPhases(t *testing.T) {
	bad := Routine{Name: "bad", Phases: []Phase{{Cycles: 0, Words: 1}}}
	if bad.Validate() == nil {
		t.Error("zero-cycle phase accepted")
	}
	bad = Routine{Name: "bad", Phases: []Phase{{Cycles: 1, CoverageSA: 2, Words: 1}}}
	if bad.Validate() == nil {
		t.Error("SA coverage > 1 accepted")
	}
	bad = Routine{Name: "bad", Phases: []Phase{{Cycles: 1, CoverageDelay: -1, Words: 1}}}
	if bad.Validate() == nil {
		t.Error("negative delay coverage accepted")
	}
	bad = Routine{Name: "bad"}
	if bad.Validate() == nil {
		t.Error("empty routine accepted")
	}
	bad = Routine{Name: "bad", Phases: []Phase{{Cycles: 1, Words: 0}}}
	if bad.Validate() == nil {
		t.Error("zero-word phase accepted")
	}
}

func TestSegmentPreservesWorkAndCoverage(t *testing.T) {
	full, _ := ByName("functional-full")
	segs := Segment(full, 100_000)
	if len(segs) < 4 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	var cycles int64
	missSA, missDelay := 1.0, 1.0
	ids := map[int]bool{}
	for _, s := range segs {
		if err := s.Validate(); err != nil {
			t.Fatalf("segment %s invalid: %v", s.Name, err)
		}
		if s.TotalCycles() > 100_000 {
			t.Errorf("segment %s has %d cycles, above the bound", s.Name, s.TotalCycles())
		}
		cycles += s.TotalCycles()
		missSA *= 1 - s.CoverageSA()
		missDelay *= 1 - s.CoverageDelay()
		if ids[s.ID] {
			t.Errorf("duplicate segment ID %d", s.ID)
		}
		ids[s.ID] = true
	}
	if cycles != full.TotalCycles() {
		t.Errorf("segments total %d cycles, want %d", cycles, full.TotalCycles())
	}
	if math.Abs((1-missSA)-full.CoverageSA()) > 1e-9 {
		t.Errorf("combined SA coverage %v != %v", 1-missSA, full.CoverageSA())
	}
	if math.Abs((1-missDelay)-full.CoverageDelay()) > 1e-9 {
		t.Errorf("combined delay coverage %v != %v", 1-missDelay, full.CoverageDelay())
	}
}

func TestSegmentNoopCases(t *testing.T) {
	r, _ := ByName("march-quick")
	if segs := Segment(r, 0); len(segs) != 1 || segs[0].Name != r.Name {
		t.Error("maxCycles=0 should be a no-op")
	}
	if segs := Segment(r, r.TotalCycles()); len(segs) != 1 {
		t.Error("routine within the bound should stay whole")
	}
}

func TestSegmentLibraryFlattens(t *testing.T) {
	lib := Library()
	segs := SegmentLibrary(lib, 80_000)
	if len(segs) <= len(lib) {
		t.Errorf("segmented library has %d routines, want more than %d", len(segs), len(lib))
	}
	for _, s := range segs {
		if err := s.Validate(); err != nil {
			t.Fatalf("segment %s invalid: %v", s.Name, err)
		}
	}
	if got := SegmentLibrary(lib, 0); len(got) != len(lib) {
		t.Error("disabled segmentation should return the library unchanged")
	}
}

func TestSegmentedExecsMatchGoldenSignatures(t *testing.T) {
	full, _ := ByName("path-delay")
	for _, seg := range Segment(full, 60_000) {
		e := NewExec(seg, 0, 3, pt(2e9), 0, nil)
		e.Advance(seg.Duration(2e9) * 2)
		if !e.Done() {
			t.Fatalf("segment %s did not finish", seg.Name)
		}
		if !e.SignatureMatches() {
			t.Errorf("fault-free segment %s mismatched golden signature", seg.Name)
		}
	}
}

// AbsorbAll folds a sequence of response words.
func (m *MISR) AbsorbAll(words []uint32) {
	for _, w := range words {
		m.Absorb(w)
	}
}

// GoldenSignature is the tests' oracle for a fault-free signature: it
// absorbs the first words response words of a routine phase at a level
// into a fresh MISR.
func GoldenSignature(routineID, phase, level, words int) uint32 {
	g := NewResponseGenerator(routineID, phase, level)
	m := NewMISR()
	for i := 0; i < words; i++ {
		m.Absorb(g.Next())
	}
	return m.Signature()
}
