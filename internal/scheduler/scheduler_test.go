package scheduler

import (
	"math"
	"testing"

	"potsim/internal/aging"
	"potsim/internal/dvfs"
	"potsim/internal/power"
	"potsim/internal/sbst"
	"potsim/internal/sim"
	"potsim/internal/tech"
)

func testConfig(cores int) Config {
	node := tech.Default()
	return Config{
		Cores:       cores,
		Model:       power.NewModel(node),
		Table:       dvfs.NewTable(node, 8),
		Criticality: aging.DefaultCriticalityModel(),
		Routines:    sbst.Library(),
		Options:     DefaultOptions(),
	}
}

func mustPOTS(t *testing.T, cfg Config) *POTS {
	t.Helper()
	p, err := NewPOTS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func idleCores(n int) []CoreSnapshot {
	out := make([]CoreSnapshot, n)
	for i := range out {
		out[i] = CoreSnapshot{ID: i, Idle: true, TempK: 318}
	}
	return out
}

func TestNewPOTSValidation(t *testing.T) {
	cfg := testConfig(4)
	cfg.Cores = 0
	if _, err := NewPOTS(cfg); err == nil {
		t.Error("zero cores accepted")
	}
	cfg = testConfig(4)
	cfg.Table = nil
	if _, err := NewPOTS(cfg); err == nil {
		t.Error("nil table accepted")
	}
	cfg = testConfig(4)
	cfg.Routines = nil
	if _, err := NewPOTS(cfg); err == nil {
		t.Error("no routines accepted")
	}
}

func TestPlanSkipsBusyAndTestingCores(t *testing.T) {
	p := mustPOTS(t, testConfig(4))
	now := sim.Second // everything long overdue
	cores := idleCores(4)
	cores[1].Idle = false
	cores[2].Testing = true
	dec := p.Plan(now, cores, 1e9)
	for _, d := range dec {
		if d.Core == 1 || d.Core == 2 {
			t.Errorf("scheduled test on unavailable core %d", d.Core)
		}
	}
	if len(dec) != 2 {
		t.Errorf("got %d decisions, want 2", len(dec))
	}
}

func TestPlanRespectsPowerSlack(t *testing.T) {
	p := mustPOTS(t, testConfig(16))
	now := sim.Second
	// Slack for roughly one test at the top level.
	one := p.estimatePower(p.routines[0], p.table.Highest(), 318)
	dec := p.Plan(now, idleCores(16), one*1.5)
	var used float64
	for _, d := range dec {
		used += p.estimatePower(d.Routine, d.Level, 318)
	}
	if used > one*1.5+1e-9 {
		t.Errorf("admitted %v W of tests into %v W slack", used, one*1.5)
	}
	if len(dec) == 0 {
		t.Error("no test admitted despite sufficient slack for one")
	}
	if p.Stats().SkippedPower == 0 {
		t.Error("power skips not recorded")
	}
}

func TestPlanZeroSlackAdmitsNothing(t *testing.T) {
	p := mustPOTS(t, testConfig(8))
	if dec := p.Plan(sim.Second, idleCores(8), 0); len(dec) != 0 {
		t.Errorf("admitted %d tests with zero slack", len(dec))
	}
}

func TestPowerUnawareIgnoresSlack(t *testing.T) {
	naive, err := NewNaiveIdle(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	dec := naive.Plan(sim.Second, idleCores(8), 0)
	if len(dec) != 8 {
		t.Errorf("power-unaware baseline launched %d tests, want 8", len(dec))
	}
}

func TestCriticalityOrdering(t *testing.T) {
	p := mustPOTS(t, testConfig(4))
	now := 100 * sim.Millisecond
	cores := idleCores(4)
	cores[2].Stress = 1.0 // most worn
	cores[3].Util = 1.0   // most utilised
	// Slack for exactly one test: the most critical core (2) must win.
	one := p.estimatePower(p.routines[0], p.table.Highest(), 318)
	dec := p.Plan(now, cores, one*1.2)
	if len(dec) != 1 {
		t.Fatalf("got %d decisions, want 1", len(dec))
	}
	if dec[0].Core != 2 {
		t.Errorf("most critical core not chosen: got %d, want 2", dec[0].Core)
	}
}

func TestMinCriticalityThreshold(t *testing.T) {
	p := mustPOTS(t, testConfig(4))
	// Right after a test, urgency is ~0: nothing should be scheduled.
	for c := 0; c < 4; c++ {
		p.OnTestComplete(c, p.table.Highest(), sim.Millisecond)
	}
	dec := p.Plan(2*sim.Millisecond, idleCores(4), 1e9)
	if len(dec) != 0 {
		t.Errorf("fresh cores scheduled for test: %d decisions", len(dec))
	}
}

func TestLevelRotationCoversAllLevels(t *testing.T) {
	cfg := testConfig(1)
	p := mustPOTS(t, cfg)
	levels := cfg.Table.Levels()
	seen := map[int]bool{}
	now := sim.Time(0)
	for i := 0; i < levels; i++ {
		now += sim.Second
		dec := p.Plan(now, idleCores(1), 1e9)
		if len(dec) != 1 {
			t.Fatalf("round %d: got %d decisions", i, len(dec))
		}
		seen[dec[0].Level] = true
		p.OnTestComplete(0, dec[0].Level, now)
	}
	if len(seen) != levels {
		t.Errorf("rotation covered %d/%d levels", len(seen), levels)
	}
	if cov := p.Stats().CoverageOfLevels(); cov != 1 {
		t.Errorf("CoverageOfLevels = %v, want 1", cov)
	}
}

func TestRotationDisabledUsesTopLevel(t *testing.T) {
	cfg := testConfig(1)
	cfg.Options.RotateLevels = false
	p := mustPOTS(t, cfg)
	now := sim.Time(0)
	for i := 0; i < 4; i++ {
		now += sim.Second
		dec := p.Plan(now, idleCores(1), 1e9)
		if len(dec) != 1 || dec[0].Level != cfg.Table.Highest() {
			t.Fatalf("round %d: expected top level, got %+v", i, dec)
		}
		p.OnTestComplete(0, dec[0].Level, now)
	}
}

func TestRoutineRotation(t *testing.T) {
	cfg := testConfig(1)
	p := mustPOTS(t, cfg)
	seen := map[string]bool{}
	now := sim.Time(0)
	for i := 0; i < len(cfg.Routines); i++ {
		now += sim.Second
		dec := p.Plan(now, idleCores(1), 1e9)
		if len(dec) != 1 {
			t.Fatal("expected one decision")
		}
		seen[dec[0].Routine.Name] = true
		p.OnTestComplete(0, dec[0].Level, now)
	}
	if len(seen) != len(cfg.Routines) {
		t.Errorf("routine rotation covered %d/%d routines", len(seen), len(cfg.Routines))
	}
}

func TestMaxConcurrent(t *testing.T) {
	cfg := testConfig(8)
	cfg.Options.MaxConcurrent = 2
	p := mustPOTS(t, cfg)
	dec := p.Plan(sim.Second, idleCores(8), 1e9)
	if len(dec) != 2 {
		t.Errorf("MaxConcurrent=2 admitted %d", len(dec))
	}
	// With one already testing, only one more may start.
	cores := idleCores(8)
	cores[7].Testing = true
	dec = p.Plan(2*sim.Second, cores, 1e9)
	if len(dec) != 1 {
		t.Errorf("with one in flight, admitted %d, want 1", len(dec))
	}
}

func TestAbortBookkeeping(t *testing.T) {
	p := mustPOTS(t, testConfig(2))
	dec := p.Plan(sim.Second, idleCores(2), 1e9)
	if len(dec) == 0 {
		t.Fatal("no tests launched")
	}
	before := p.lastTest[dec[0].Core]
	p.OnTestAborted(dec[0].Core, sim.Second+sim.Millisecond)
	if p.lastTest[dec[0].Core] != before {
		t.Error("abort must not count as a completed test")
	}
	if p.Stats().Aborted != 1 {
		t.Error("abort not counted")
	}
}

func TestNoTestPolicy(t *testing.T) {
	var nt NoTest
	if nt.Name() != "NoTest" {
		t.Error("name wrong")
	}
	if dec := nt.Plan(sim.Second, idleCores(4), 1e9); dec != nil {
		t.Error("NoTest scheduled something")
	}
	nt.OnTestComplete(0, 0, 0) // must not panic
	nt.OnTestAborted(0, 0)
}

func TestPeriodicIsCriticalityBlind(t *testing.T) {
	p, err := NewPeriodic(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	cores := idleCores(4)
	cores[3].Stress = 1
	// Tiny slack admits one test; a criticality-blind policy picks by
	// round-robin position, not stress.
	one := p.estimatePower(p.routines[0], p.table.Highest(), 318)
	dec := p.Plan(sim.Microsecond, cores, one*1.2)
	if len(dec) != 1 {
		t.Fatalf("got %d decisions", len(dec))
	}
	if dec[0].Core == 3 {
		t.Log("periodic picked the stressed core by coincidence of rotation")
	}
	if p.Name() != "Periodic" {
		t.Error("name wrong")
	}
}

func TestStatsCopyIsolated(t *testing.T) {
	p := mustPOTS(t, testConfig(2))
	s := p.Stats()
	if len(s.LevelRuns) == 0 {
		t.Fatal("no level runs slice")
	}
	s.LevelRuns[0] = 999
	if p.Stats().LevelRuns[0] == 999 {
		t.Error("Stats() exposed internal slice")
	}
}

func TestEstimatePowerScalesWithLevel(t *testing.T) {
	p := mustPOTS(t, testConfig(1))
	r := p.routines[1]
	low := p.estimatePower(r, 0, 318)
	high := p.estimatePower(r, p.table.Highest(), 318)
	if !(low < high) || low <= 0 {
		t.Errorf("test power not increasing in level: low=%v high=%v", low, high)
	}
	if math.IsNaN(low) || math.IsNaN(high) {
		t.Error("NaN power estimate")
	}
}

func TestRotationDisabledCoverageIsOneLevel(t *testing.T) {
	cfg := testConfig(1)
	cfg.Options.RotateLevels = false
	p := mustPOTS(t, cfg)
	now := sim.Time(0)
	for i := 0; i < 6; i++ {
		now += sim.Second
		dec := p.Plan(now, idleCores(1), 1e9)
		if len(dec) != 1 {
			t.Fatal("expected one decision")
		}
		p.OnTestComplete(0, dec[0].Level, now)
	}
	want := 1.0 / float64(cfg.Table.Levels())
	if cov := p.Stats().CoverageOfLevels(); math.Abs(cov-want) > 1e-9 {
		t.Errorf("coverage with rotation off = %v, want %v", cov, want)
	}
}

func TestThermalGuardSkipsHotCores(t *testing.T) {
	cfg := testConfig(4)
	cfg.Options.MaxTestTempK = 350
	p := mustPOTS(t, cfg)
	cores := idleCores(4)
	cores[1].TempK = 360 // above guard
	cores[2].TempK = 400
	dec := p.Plan(sim.Second, cores, 1e9)
	for _, d := range dec {
		if d.Core == 1 || d.Core == 2 {
			t.Errorf("scheduled test on hot core %d", d.Core)
		}
	}
	if len(dec) != 2 {
		t.Errorf("got %d decisions, want 2 cool cores", len(dec))
	}
	if p.Stats().SkippedThermal != 2 {
		t.Errorf("thermal skips = %d, want 2", p.Stats().SkippedThermal)
	}
	// Guard disabled: everything hot is fair game.
	cfg.Options.MaxTestTempK = 0
	p2 := mustPOTS(t, cfg)
	if dec := p2.Plan(sim.Second, cores, 1e9); len(dec) != 4 {
		t.Errorf("guard disabled: got %d decisions, want 4", len(dec))
	}
}

func TestPredictMeanInterval(t *testing.T) {
	target := 50 * sim.Millisecond
	dur := 2 * sim.Millisecond
	// Plenty of idle time: demand-limited, interval = target.
	if got := PredictMeanInterval(target, dur, 0.8, 1); got != target {
		t.Errorf("demand-limited interval = %v, want %v", got, target)
	}
	// Scarce idle time: supply-limited.
	got := PredictMeanInterval(target, dur, 0.01, 1)
	if want := 200 * sim.Millisecond; got != want {
		t.Errorf("supply-limited interval = %v, want %v", got, want)
	}
	// Power admission halves the supply.
	got = PredictMeanInterval(target, dur, 0.01, 0.5)
	if want := 400 * sim.Millisecond; got != want {
		t.Errorf("admission-limited interval = %v, want %v", got, want)
	}
	// Degenerate inputs.
	if PredictMeanInterval(target, dur, 0, 1) != math.MaxInt64 {
		t.Error("zero idle should predict no testing")
	}
	if PredictMeanInterval(target, dur, 2, 2) != target {
		t.Error("inputs above 1 should clamp")
	}
}

func TestMeanRoutineDuration(t *testing.T) {
	cfg := testConfig(1)
	d := MeanRoutineDuration(cfg.Routines, cfg.Table)
	if d <= 0 {
		t.Fatal("non-positive mean duration")
	}
	// Must exceed the fastest possible run and stay below the slowest.
	var fastest, slowest sim.Time
	fastest = 1 << 62
	for _, r := range cfg.Routines {
		if v := r.Duration(cfg.Table.Point(cfg.Table.Highest()).FreqHz); v < fastest {
			fastest = v
		}
		if v := r.Duration(cfg.Table.Point(0).FreqHz); v > slowest {
			slowest = v
		}
	}
	if d <= fastest || d >= slowest {
		t.Errorf("mean duration %v outside (%v, %v)", d, fastest, slowest)
	}
	if MeanRoutineDuration(nil, cfg.Table) != 0 {
		t.Error("empty routine set should yield 0")
	}
}

func TestSegmentedSessionCreditsOnlyAtEnd(t *testing.T) {
	cfg := testConfig(1)
	cfg.Routines = sbst.Segment(cfg.Routines[1], 100_000) // functional-full chunks
	p := mustPOTS(t, cfg)
	now := sim.Time(0)
	for i, seg := range cfg.Routines {
		now += sim.Second
		dec := p.Plan(now, idleCores(1), 1e9)
		if len(dec) != 1 {
			t.Fatalf("segment %d not scheduled (core should stay due mid-session)", i)
		}
		if dec[0].Routine.Name != seg.Name {
			t.Fatalf("segment order broken: got %s, want %s", dec[0].Routine.Name, seg.Name)
		}
		p.OnTestComplete(0, dec[0].Level, now)
		if i < len(cfg.Routines)-1 && p.lastTest[0] != 0 {
			t.Fatalf("mid-session segment %d credited the interval", i)
		}
	}
	if p.lastTest[0] != now {
		t.Error("session end did not credit the interval")
	}
	// All segments of one session run at the same level.
	runs := p.Stats().LevelRuns
	if runs[cfg.Table.Highest()] != len(cfg.Routines) {
		t.Errorf("session segments spread across levels: %v", runs)
	}
}
