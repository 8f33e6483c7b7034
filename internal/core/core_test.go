package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"potsim/internal/eventlog"
	"potsim/internal/guard"
	"potsim/internal/sbst"
	"potsim/internal/sim"
	"potsim/internal/workload"
)

// shortConfig is a fast configuration for integration tests.
func shortConfig() Config {
	cfg := DefaultConfig()
	cfg.Horizon = 100 * sim.Millisecond
	cfg.TraceEvery = sim.Millisecond
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestConfigValidation(t *testing.T) {
	mut := map[string]func(*Config){
		"zero width":        func(c *Config) { c.Width = 0 },
		"one dvfs level":    func(c *Config) { c.DVFSLevels = 1 },
		"zero tdp":          func(c *Config) { c.TDPFraction = 0; c.TDPWatts = 0 },
		"zero epoch":        func(c *Config) { c.Epoch = 0 },
		"horizon < epoch":   func(c *Config) { c.Horizon = c.Epoch / 2 },
		"zero interarrival": func(c *Config) { c.MeanInterarrival = 0 },
		"bad mapper":        func(c *Config) { c.MapperName = "nope" },
		"bad policy":        func(c *Config) { c.TestPolicy = "nope" },
		"tiny mesh":         func(c *Config) { c.Width, c.Height = 2, 2 },
		"bad noc":           func(c *Config) { c.NoCBufferDepth = 0 },
	}
	for name, m := range mut {
		cfg := DefaultConfig()
		m(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestTDPResolution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TDPWatts = 12.5
	if cfg.TDP() != 12.5 {
		t.Error("explicit TDPWatts not honoured")
	}
	cfg.TDPWatts = 0
	want := cfg.TDPFraction * float64(cfg.Cores()) * cfg.Node.PeakCorePower()
	if math.Abs(cfg.TDP()-want) > 1e-9 {
		t.Errorf("fractional TDP = %v, want %v", cfg.TDP(), want)
	}
}

func TestRunProducesWork(t *testing.T) {
	rep := mustRun(t, shortConfig())
	if rep.AppsArrived == 0 || rep.AppsMapped == 0 {
		t.Fatalf("no applications processed: %+v", rep)
	}
	if rep.TasksCompleted == 0 || rep.ThroughputTasksPerSec <= 0 {
		t.Error("no tasks completed")
	}
	if rep.AppsCompleted > rep.AppsMapped || rep.AppsMapped > rep.AppsArrived {
		t.Errorf("app counters inconsistent: %d <= %d <= %d violated",
			rep.AppsCompleted, rep.AppsMapped, rep.AppsArrived)
	}
	if rep.MeanCoreUtilization <= 0 || rep.MeanCoreUtilization > 1 {
		t.Errorf("utilization %v outside (0,1]", rep.MeanCoreUtilization)
	}
}

func TestOnlineTestingHappens(t *testing.T) {
	rep := mustRun(t, shortConfig())
	if rep.TestsCompleted == 0 {
		t.Fatal("POTS completed no tests")
	}
	if rep.TestEnergyShare <= 0 || rep.TestEnergyShare > 0.1 {
		t.Errorf("test energy share %v implausible", rep.TestEnergyShare)
	}
	if rep.TestDeliveries < rep.TestsCompleted {
		t.Error("every test needs a program delivery over the NoC")
	}
}

func TestPowerStaysNearBudget(t *testing.T) {
	rep := mustRun(t, shortConfig())
	if rep.MeanPowerW <= 0 {
		t.Fatal("no power consumed")
	}
	if rep.MeanPowerW > rep.TDPWatts {
		t.Errorf("mean power %v above TDP %v", rep.MeanPowerW, rep.TDPWatts)
	}
	if rep.ViolationRate > 0.05 {
		t.Errorf("violation rate %v too high for the default budget", rep.ViolationRate)
	}
	if len(rep.Trace) == 0 {
		t.Error("no power trace recorded")
	}
	for _, p := range rep.Trace {
		if p.Total() < 0 || p.Budget != rep.TDPWatts {
			t.Fatalf("bad trace point %+v", p)
		}
	}
}

func TestNoTestBaselineHasNoTests(t *testing.T) {
	cfg := shortConfig()
	cfg.TestPolicy = PolicyNoTest
	rep := mustRun(t, cfg)
	if rep.TestsCompleted != 0 || rep.TestEnergyJ != 0 {
		t.Errorf("NoTest ran tests: %d, %v J", rep.TestsCompleted, rep.TestEnergyJ)
	}
	if rep.PolicyName != "NoTest" {
		t.Errorf("policy name %q", rep.PolicyName)
	}
}

func TestThroughputPenaltySmall(t *testing.T) {
	// Claim C1: <1% penalty. Short horizons are noisy, so average a few
	// seeds and allow 3%; E1 is the full-strength check.
	var pen float64
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := shortConfig()
		cfg.Seed = seed
		rep := mustRun(t, cfg)
		cfg.TestPolicy = PolicyNoTest
		ref := mustRun(t, cfg)
		pen += rep.ThroughputPenalty(ref)
	}
	pen /= 3
	if pen > 0.03 {
		t.Errorf("mean throughput penalty %.2f%% too high", 100*pen)
	}
}

func TestLevelCoverageReachesAllLevels(t *testing.T) {
	cfg := shortConfig()
	cfg.Horizon = 400 * sim.Millisecond
	rep := mustRun(t, cfg)
	if rep.LevelCoverage < 1 {
		t.Errorf("level coverage %v, want 1.0 (claim C5); runs: %v",
			rep.LevelCoverage, rep.LevelRuns)
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, shortConfig())
	b := mustRun(t, shortConfig())
	if a.TasksCompleted != b.TasksCompleted ||
		a.TestsCompleted != b.TestsCompleted ||
		a.EnergyJ != b.EnergyJ ||
		a.MeanPowerW != b.MeanPowerW {
		t.Errorf("same seed diverged:\n%+v\n%+v", a.Summary(), b.Summary())
	}
}

// TestFlitModeDeterminism pins the co-simulated NoC path: flit
// injection order used to follow map iteration over CommFlits, so
// identical seeds produced different router arbitration and drifted
// the power/utilization numbers between runs.
func TestFlitModeDeterminism(t *testing.T) {
	cfg := shortConfig()
	cfg.NoCMode = "flit"
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged in flit mode:\n%+v\n%+v", a.Summary(), b.Summary())
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := shortConfig()
	a := mustRun(t, cfg)
	cfg.Seed = 999
	b := mustRun(t, cfg)
	if a.TasksCompleted == b.TasksCompleted && a.EnergyJ == b.EnergyJ {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestFaultInjectionAndDetection(t *testing.T) {
	cfg := shortConfig()
	cfg.Horizon = 400 * sim.Millisecond
	cfg.EnableFaults = true
	cfg.Faults.BaseRatePerSec = 0.2 // accelerated for the test
	rep := mustRun(t, cfg)
	if rep.FaultStats.Injected == 0 {
		t.Fatal("no faults injected at accelerated rate")
	}
	if rep.FaultStats.Detected == 0 {
		t.Error("online testing detected nothing")
	}
	if rep.FaultStats.Detected > 0 && rep.FaultStats.MeanLatency <= 0 {
		t.Error("detection latency not recorded")
	}
}

func TestNaivePolicyTestsMore(t *testing.T) {
	cfg := shortConfig()
	cfg.TDPFraction = 0.22 // tight budget: POTS must skip, naive must not
	pots := mustRun(t, cfg)
	cfg.TestPolicy = PolicyNaive
	naive := mustRun(t, cfg)
	if pots.TestsSkipPower == 0 {
		t.Error("tight budget should force POTS power skips")
	}
	if naive.TestsSkipPower != 0 {
		t.Error("naive policy should never skip for power")
	}
	if naive.TestsCompleted <= pots.TestsCompleted/2 {
		t.Errorf("naive should test at least comparably: %d vs %d",
			naive.TestsCompleted, pots.TestsCompleted)
	}
}

func TestAbortsOnMapping(t *testing.T) {
	cfg := shortConfig()
	cfg.MeanInterarrival = sim.Millisecond // heavy arrivals claim cores often
	// TUM deliberately avoids claiming cores under test, so use the
	// test-blind FF mapper to exercise the preemption path.
	cfg.MapperName = "FF"
	rep := mustRun(t, cfg)
	if rep.TestsAborted == 0 {
		t.Error("expected some tests to be preempted by arriving applications")
	}
	// Non-intrusive: aborts must not exceed starts.
	if rep.TestsAborted+rep.TestsCompleted > rep.TestsStarted {
		t.Errorf("test accounting broken: %d aborted + %d completed > %d started",
			rep.TestsAborted, rep.TestsCompleted, rep.TestsStarted)
	}
}

func TestMapperVariantsRun(t *testing.T) {
	for _, m := range []string{"FF", "NN", "CoNA", "MapPro", "TUM"} {
		cfg := shortConfig()
		cfg.Horizon = 50 * sim.Millisecond
		cfg.MapperName = m
		rep := mustRun(t, cfg)
		if rep.TasksCompleted == 0 {
			t.Errorf("mapper %s completed no tasks", m)
		}
	}
}

func TestPeriodicPolicyRuns(t *testing.T) {
	cfg := shortConfig()
	cfg.TestPolicy = PolicyPeriodic
	rep := mustRun(t, cfg)
	if rep.TestsCompleted == 0 {
		t.Error("periodic policy completed no tests")
	}
	if rep.PolicyName != "Periodic" {
		t.Errorf("policy name %q", rep.PolicyName)
	}
}

func TestReportHelpers(t *testing.T) {
	rep := mustRun(t, shortConfig())
	if s := rep.Summary(); len(s) < 100 {
		t.Errorf("summary suspiciously short: %q", s)
	}
	if h := rep.LevelHistogram(); len(h) == 0 {
		t.Error("empty level histogram")
	}
	if rep.MeanTestIntervalMS() <= 0 {
		t.Error("mean test interval should be positive when tests ran")
	}
	if (&Report{}).MeanTestIntervalMS() != -1 {
		t.Error("empty report interval should be -1")
	}
	if rep.ThroughputPenalty(nil) != 0 {
		t.Error("nil reference should give 0 penalty")
	}
}

// TestLevelHistogramOneRowPerLevel pins each level's count to its own
// row. At 22 levels, binning the levels as floats into 22 equal buckets
// put level 15 in the [14,15) row and left [15,16) empty.
func TestLevelHistogramOneRowPerLevel(t *testing.T) {
	rep := &Report{LevelRuns: make([]int, 22)}
	for lvl := range rep.LevelRuns {
		rep.LevelRuns[lvl] = lvl + 1
	}
	rows := strings.Split(strings.TrimSuffix(rep.LevelHistogram(), "\n"), "\n")
	if len(rows) != len(rep.LevelRuns) {
		t.Fatalf("%d rows for %d levels", len(rows), len(rep.LevelRuns))
	}
	for lvl, row := range rows {
		want := fmt.Sprintf("%16s %6d ", fmt.Sprintf("[%d,%d)", lvl, lvl+1), lvl+1)
		if !strings.HasPrefix(row, want) {
			t.Errorf("level %d row = %q, want prefix %q", lvl, row, want)
		}
	}
	if bars := strings.Count(rows[21], "#"); bars != 40 {
		t.Errorf("busiest level draws %d columns, want 40", bars)
	}
}

func TestThermalAndAgingProgress(t *testing.T) {
	rep := mustRun(t, shortConfig())
	ambient := 318.0
	if rep.PeakTempK <= ambient {
		t.Errorf("peak temperature %v never rose above ambient", rep.PeakTempK)
	}
	anyStress := false
	for _, s := range rep.PerCoreStress {
		if s > 0 {
			anyStress = true
		}
		if s < 0 || s > 1 {
			t.Fatalf("stress %v outside [0,1]", s)
		}
	}
	if !anyStress {
		t.Error("accelerated aging produced no stress")
	}
}

func TestStressedCoresTestedMorePerIdleTime(t *testing.T) {
	// Claim C4: the criticality metric makes stressed/utilised cores be
	// tested more eagerly. Busy cores have fewer idle windows, so the
	// right signature is tests per unit of idle time: the top-stress
	// half of cores must match or beat the bottom half.
	cfg := shortConfig()
	cfg.Horizon = 400 * sim.Millisecond
	rep := mustRun(t, cfg)
	type cr struct{ stress, rate float64 }
	var cs []cr
	for i := range rep.PerCoreStress {
		idle := rep.PerCoreIdleFrac[i]
		if idle <= 0.02 {
			continue // no opportunity at all: rate undefined
		}
		cs = append(cs, cr{rep.PerCoreStress[i], float64(rep.PerCoreTests[i]) / idle})
	}
	if len(cs) < 8 {
		t.Fatalf("too few cores with idle time: %d", len(cs))
	}
	sortByStress := func(a, b int) bool { return cs[a].stress < cs[b].stress }
	idx := make([]int, len(cs))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ { // insertion sort by stress
		for j := i; j > 0 && sortByStress(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	half := len(idx) / 2
	var lo, hi float64
	for _, i := range idx[:half] {
		lo += cs[i].rate
	}
	for _, i := range idx[half:] {
		hi += cs[i].rate
	}
	lo /= float64(half)
	hi /= float64(len(idx) - half)
	if hi < lo*0.9 { // allow 10% noise; hi should not be clearly lower
		t.Errorf("stressed cores tested at %v/idle vs %v/idle for fresh cores", hi, lo)
	}
}

func TestDecommissionOnDetect(t *testing.T) {
	cfg := shortConfig()
	cfg.Horizon = 400 * sim.Millisecond
	cfg.EnableFaults = true
	cfg.Faults.BaseRatePerSec = 0.3
	cfg.DecommissionOnDetect = true
	rep := mustRun(t, cfg)
	if len(rep.DecommissionedCores) == 0 {
		t.Fatal("no cores decommissioned despite heavy fault injection")
	}
	if len(rep.DecommissionedCores) > rep.FaultStats.Detected {
		t.Errorf("%d decommissions exceed %d detections",
			len(rep.DecommissionedCores), rep.FaultStats.Detected)
	}
	// A decommissioned core must not be re-tested after retirement; with
	// many retired cores the system must still make progress.
	if rep.TasksCompleted == 0 {
		t.Error("system stopped completing work after decommissions")
	}
	seen := map[int]bool{}
	for _, c := range rep.DecommissionedCores {
		if c < 0 || c >= cfg.Cores() {
			t.Fatalf("decommissioned core id %d out of range", c)
		}
		if seen[c] {
			t.Fatalf("core %d decommissioned twice", c)
		}
		seen[c] = true
	}
}

func TestAtSpeedDetectionPrefersTopLevel(t *testing.T) {
	// With rotation on, delay faults should predominantly be caught by
	// high-level (at-speed) test runs. We check the weaker system-level
	// signature: detection still works with rotation enabled.
	cfg := shortConfig()
	cfg.Horizon = 400 * sim.Millisecond
	cfg.EnableFaults = true
	cfg.Faults.BaseRatePerSec = 0.2
	cfg.Faults.DelayShare = 0.9
	cfg.Faults.IntermittentShare = 0.05
	rep := mustRun(t, cfg)
	if rep.FaultStats.Injected == 0 {
		t.Skip("no faults injected at this seed")
	}
	if rep.FaultStats.Detected == 0 {
		t.Error("delay-heavy fault mix never detected despite level rotation")
	}
}

func TestReportJSONRoundTrips(t *testing.T) {
	rep := mustRun(t, shortConfig())
	blob, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	for _, key := range []string{"TasksCompleted", "TDPWatts", "LevelRuns", "Config"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON missing key %q", key)
		}
	}
}

func TestEventLogCapturesLifecycle(t *testing.T) {
	cfg := shortConfig()
	cfg.EventLogCapacity = 100000
	cfg.EnableFaults = true
	cfg.Faults.BaseRatePerSec = 0.2
	cfg.DecommissionOnDetect = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	counts := sys.Events().CountByKind()
	if counts[eventlog.AppArrived] != rep.AppsArrived {
		t.Errorf("arrived events %d != report %d", counts[eventlog.AppArrived], rep.AppsArrived)
	}
	if counts[eventlog.AppMapped] != rep.AppsMapped {
		t.Errorf("mapped events %d != report %d", counts[eventlog.AppMapped], rep.AppsMapped)
	}
	if counts[eventlog.AppCompleted] != rep.AppsCompleted {
		t.Errorf("completed events %d != report %d", counts[eventlog.AppCompleted], rep.AppsCompleted)
	}
	if counts[eventlog.TestCompleted] != rep.TestsCompleted {
		t.Errorf("test-completed events %d != report %d", counts[eventlog.TestCompleted], rep.TestsCompleted)
	}
	if counts[eventlog.TestAborted] != rep.TestsAborted {
		t.Errorf("test-aborted events %d != report %d", counts[eventlog.TestAborted], rep.TestsAborted)
	}
	if counts[eventlog.FaultInjected] != rep.FaultStats.Injected {
		t.Errorf("fault events %d != report %d", counts[eventlog.FaultInjected], rep.FaultStats.Injected)
	}
	if counts[eventlog.Decommissioned] != len(rep.DecommissionedCores) {
		t.Errorf("decommission events %d != report %d",
			counts[eventlog.Decommissioned], len(rep.DecommissionedCores))
	}
	// Events must be chronologically ordered.
	events := sys.Events().Events()
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestEventLogDisabledByDefault(t *testing.T) {
	sys, err := New(shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.Events().Enabled() || sys.Events().Len() != 0 {
		t.Error("event log should be disabled by default")
	}
}

func TestFlitModeRunsAndDeliversWork(t *testing.T) {
	cfg := shortConfig()
	cfg.Horizon = 20 * sim.Millisecond
	cfg.NoCMode = "flit"
	rep := mustRun(t, cfg)
	if rep.TasksCompleted == 0 {
		t.Fatal("flit mode completed no tasks")
	}
	if rep.TestsCompleted == 0 {
		t.Error("flit mode completed no tests (program deliveries stuck?)")
	}
}

// The transaction model is a stand-in for the flit network; on identical
// seeds and a short horizon their system-level outcomes must agree to
// first order (this is the calibration the DESIGN.md substitution relies
// on).
func TestFlitModeAgreesWithTxnModel(t *testing.T) {
	if testing.Short() {
		t.Skip("co-simulation is slow")
	}
	cfg := shortConfig()
	cfg.Horizon = 40 * sim.Millisecond
	cfg.MapperName = "NN"
	txn := mustRun(t, cfg)
	cfg.NoCMode = "flit"
	flit := mustRun(t, cfg)
	relDiff := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		d := (a - b) / b
		if d < 0 {
			return -d
		}
		return d
	}
	if d := relDiff(float64(flit.TasksCompleted), float64(txn.TasksCompleted)); d > 0.15 {
		t.Errorf("task throughput diverges %v: flit=%d txn=%d",
			d, flit.TasksCompleted, txn.TasksCompleted)
	}
	if d := relDiff(flit.MeanPowerW, txn.MeanPowerW); d > 0.15 {
		t.Errorf("mean power diverges %v: flit=%v txn=%v", d, flit.MeanPowerW, txn.MeanPowerW)
	}
}

func TestNoCModeValidation(t *testing.T) {
	cfg := shortConfig()
	cfg.NoCMode = "quantum"
	if _, err := New(cfg); err == nil {
		t.Error("bogus NoCMode accepted")
	}
}

func TestClassAwareDVFSProtectsHardRT(t *testing.T) {
	// Same seed, binding cap: enabling class awareness must reduce the
	// slowdown hard-RT applications experience (they are throttled last)
	// while best-effort absorbs at least as much as before.
	cfg := shortConfig()
	cfg.Horizon = 300 * sim.Millisecond
	cfg.TDPFraction = 0.22
	aware := mustRun(t, cfg)
	cfg.ClassAwareDVFS = false
	blind := mustRun(t, cfg)
	ah, bh := aware.ClassSlowdown["hard-rt"], blind.ClassSlowdown["hard-rt"]
	ab, bb := aware.ClassSlowdown["best-effort"], blind.ClassSlowdown["best-effort"]
	if ah == 0 || bh == 0 || ab == 0 || bb == 0 {
		t.Skipf("class missing from the mix at this seed: aware=%+v blind=%+v",
			aware.ClassSlowdown, blind.ClassSlowdown)
	}
	if ah > bh+1e-6 {
		t.Errorf("class awareness should reduce hard-RT slowdown: aware %v vs blind %v", ah, bh)
	}
	if ab < bb-1e-6 {
		t.Errorf("best-effort should absorb the cap under class awareness: aware %v vs blind %v", ab, bb)
	}
}

func TestEnqueueIsFIFO(t *testing.T) {
	// Mapping admission is FIFO across classes: the ICCD'14 priorities
	// act on DVFS shaping, not admission, so no class starves.
	cfg := shortConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mkApp := func(seq int, class workload.Class) *appRun {
		g := workload.PIP() // template; override class per instance
		copied := *g
		copied.Class = class
		return &appRun{seq: seq, graph: &copied}
	}
	sys.enqueue(mkApp(0, workload.BestEffort))
	sys.enqueue(mkApp(1, workload.HardRT))
	sys.enqueue(mkApp(2, workload.SoftRT))
	for i, app := range sys.pending {
		if app.seq != i {
			t.Fatalf("queue not FIFO: %d at position %d", app.seq, i)
		}
	}
}

func TestThermalEmergencyClampsHotCores(t *testing.T) {
	cfg := shortConfig()
	// Absurdly low limit: every running core trips the throttle.
	cfg.ThermalEmergencyK = 319
	rep := mustRun(t, cfg)
	if rep.ThermalEmergencies == 0 {
		t.Fatal("no emergencies recorded despite a 319 K limit")
	}
	// The clamp slows everything: throughput must drop vs the unclamped run.
	cfg.ThermalEmergencyK = 0
	free := mustRun(t, cfg)
	if free.ThermalEmergencies != 0 {
		t.Error("emergencies recorded with the limit disabled")
	}
	if rep.ThroughputTasksPerSec >= free.ThroughputTasksPerSec {
		t.Errorf("thermal clamp did not cost throughput: %v vs %v",
			rep.ThroughputTasksPerSec, free.ThroughputTasksPerSec)
	}
	// At the default (realistic) limit no emergencies fire in this setup.
	base := mustRun(t, shortConfig())
	if base.ThermalEmergencies != 0 {
		t.Errorf("default run tripped %d thermal emergencies", base.ThermalEmergencies)
	}
}

func TestTraceRecordAndReplayReproducesRun(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "arrivals.jsonl")

	cfg := shortConfig()
	cfg.RecordTracePath = trace
	recorded := mustRun(t, cfg)

	cfg2 := shortConfig()
	cfg2.TracePath = trace
	replayed := mustRun(t, cfg2)

	// Same arrivals, same seeds for every other stream: the replay is
	// bit-identical to the recorded run.
	if recorded.AppsArrived != replayed.AppsArrived ||
		recorded.TasksCompleted != replayed.TasksCompleted ||
		recorded.EnergyJ != replayed.EnergyJ ||
		recorded.TestsCompleted != replayed.TestsCompleted {
		t.Errorf("replay diverged:\nrec: %s\nrep: %s",
			recorded.Summary(), replayed.Summary())
	}
}

func TestTraceConfigValidation(t *testing.T) {
	cfg := shortConfig()
	cfg.TracePath = "a"
	cfg.RecordTracePath = "b"
	if _, err := New(cfg); err == nil {
		t.Error("replay+record accepted")
	}
	cfg = shortConfig()
	cfg.TracePath = "/does/not/exist.jsonl"
	if _, err := New(cfg); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestBurstyWorkloadRuns(t *testing.T) {
	cfg := shortConfig()
	cfg.Burst = workload.DefaultBurstiness()
	rep := mustRun(t, cfg)
	if rep.AppsArrived == 0 || rep.TasksCompleted == 0 {
		t.Error("bursty run did no work")
	}
	// Bursts under the same mean rate produce different arrival counts
	// than plain Poisson (phase modulation changes the sample path).
	plain := mustRun(t, shortConfig())
	if rep.AppsArrived == plain.AppsArrived && rep.EnergyJ == plain.EnergyJ {
		t.Error("bursty run identical to plain run (modulation inactive?)")
	}
}

func TestMemoryContentionSlowsThroughput(t *testing.T) {
	cfg := shortConfig()
	withMem := mustRun(t, cfg)
	if withMem.MemControllers != 4 {
		t.Fatalf("default run has %d controllers, want 4", withMem.MemControllers)
	}
	if withMem.PeakMemRho <= 0 {
		t.Error("no memory utilisation recorded")
	}
	cfg.MemControllers = 0 // ideal memory
	ideal := mustRun(t, cfg)
	if ideal.MemControllers != 0 || ideal.PeakMemRho != 0 {
		t.Error("disabled memory model still reported utilisation")
	}
	if withMem.ThroughputTasksPerSec >= ideal.ThroughputTasksPerSec {
		t.Errorf("memory contention should cost throughput: %v vs ideal %v",
			withMem.ThroughputTasksPerSec, ideal.ThroughputTasksPerSec)
	}
	// Fewer controllers concentrate demand: single-controller runs see
	// higher peak utilisation and lower throughput.
	cfg.MemControllers = 1
	one := mustRun(t, cfg)
	if one.PeakMemRho <= withMem.PeakMemRho {
		t.Errorf("1 controller should be hotter: %v vs %v", one.PeakMemRho, withMem.PeakMemRho)
	}
	if one.ThroughputTasksPerSec >= withMem.ThroughputTasksPerSec {
		t.Errorf("1 controller should be slower: %v vs %v",
			one.ThroughputTasksPerSec, withMem.ThroughputTasksPerSec)
	}
}

func TestResumePhaseRecoversPreemptedWork(t *testing.T) {
	mk := func(policy sbst.AbortPolicy) *Report {
		cfg := shortConfig()
		cfg.Horizon = 200 * sim.Millisecond
		cfg.MeanInterarrival = sim.Millisecond // heavy arrivals: many aborts
		cfg.MapperName = "FF"                  // test-blind mapper preempts freely
		cfg.AbortPolicy = policy
		cfg.Seed = 3 // a seed with many preemptions under both policies
		return mustRun(t, cfg)
	}
	discard := mk(sbst.DiscardProgress)
	resume := mk(sbst.ResumePhase)
	if discard.TestsAborted == 0 || resume.TestsAborted == 0 {
		t.Skip("no preemptions at this seed; scenario needs aborts")
	}
	// Keeping completed phases must not reduce completed-test throughput.
	if resume.TestsCompleted < discard.TestsCompleted {
		t.Errorf("ResumePhase completed fewer tests (%d) than DiscardProgress (%d)",
			resume.TestsCompleted, discard.TestsCompleted)
	}
}

// System-level property: for arbitrary small configurations, a short run
// upholds the global invariants — counter consistency, stress bounds,
// power-trace sanity, and budget accounting.
func TestSystemInvariantsProperty(t *testing.T) {
	prop := func(seed uint64, meshRaw, polRaw, mapRaw, tdpRaw uint8) bool {
		cfg := DefaultConfig()
		cfg.Horizon = 30 * sim.Millisecond
		cfg.Seed = seed
		// Mesh between 5x5 and 8x8 (must fit the 16-task VOPD graph).
		side := 5 + int(meshRaw)%4
		cfg.Width, cfg.Height = side, side
		cfg.TestPolicy = []TestPolicyKind{PolicyPOTS, PolicyNaive,
			PolicyPeriodic, PolicyNoTest}[polRaw%4]
		cfg.MapperName = []string{"FF", "NN", "CoNA", "MapPro", "TUM"}[mapRaw%5]
		cfg.TDPFraction = 0.2 + float64(tdpRaw%60)/100
		sys, err := New(cfg)
		if err != nil {
			return false
		}
		rep, err := sys.Run()
		if err != nil {
			return false
		}
		if rep.AppsCompleted > rep.AppsMapped || rep.AppsMapped > rep.AppsArrived {
			return false
		}
		if rep.TestsAborted+rep.TestsCompleted > rep.TestsStarted {
			return false
		}
		if rep.MeanCoreUtilization < 0 || rep.MeanCoreUtilization > 1 {
			return false
		}
		for _, s := range rep.PerCoreStress {
			if s < 0 || s > 1 {
				return false
			}
		}
		for _, f := range rep.PerCoreIdleFrac {
			if f < 0 || f > 1 {
				return false
			}
		}
		if rep.EnergyJ < 0 || rep.TestEnergyJ < 0 || rep.TestEnergyJ > rep.EnergyJ {
			return false
		}
		for _, p := range rep.Trace {
			if p.Total() < 0 || p.Budget != rep.TDPWatts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestDVFSTransitionCostsThroughput(t *testing.T) {
	// A binding budget keeps the capper moving levels; a transition stall
	// of a full epoch wipes the work of every switching epoch, so task
	// completions must drop vs free transitions.
	mk := func(stall sim.Time) *Report {
		cfg := shortConfig()
		cfg.Horizon = 300 * sim.Millisecond
		cfg.TDPFraction = 0.22
		cfg.DVFSTransition = stall
		return mustRun(t, cfg)
	}
	free := mk(0)
	costly := mk(100 * sim.Microsecond) // a full control epoch per switch
	if free.DVFSTransitions == 0 || costly.DVFSTransitions == 0 {
		t.Fatal("no level transitions recorded under a binding budget")
	}
	if costly.TasksCompleted >= free.TasksCompleted {
		t.Errorf("transition stalls should cost work: %d vs %d tasks",
			costly.TasksCompleted, free.TasksCompleted)
	}
}

func TestSegmentationReducesAbortWaste(t *testing.T) {
	// Under heavy preemption (test-blind FF mapper, dense arrivals),
	// chopping routines into small segments lets more test work survive:
	// the abort-per-start ratio must drop.
	mk := func(segment int64) *Report {
		cfg := shortConfig()
		cfg.Horizon = 200 * sim.Millisecond
		cfg.MeanInterarrival = sim.Millisecond
		cfg.MapperName = "FF"
		cfg.TestSegmentCycles = segment
		return mustRun(t, cfg)
	}
	whole := mk(0)
	chopped := mk(60_000)
	if whole.TestsStarted == 0 || chopped.TestsStarted == 0 {
		t.Fatal("no tests started")
	}
	wasteWhole := float64(whole.TestsAborted) / float64(whole.TestsStarted)
	wasteChopped := float64(chopped.TestsAborted) / float64(chopped.TestsStarted)
	if wasteChopped >= wasteWhole {
		t.Errorf("segmentation should cut abort waste: %v vs %v", wasteChopped, wasteWhole)
	}
	if chopped.TestsCompleted <= whole.TestsCompleted {
		t.Errorf("segments completed (%d) should exceed whole routines (%d)",
			chopped.TestsCompleted, whole.TestsCompleted)
	}
}

func TestTorusInterconnectShortensCommunication(t *testing.T) {
	cfg := shortConfig()
	cfg.NoCTopology = "torus" // default config already has 2 VCs
	rep := mustRun(t, cfg)
	if rep.TasksCompleted == 0 {
		t.Fatal("torus run did no work")
	}
	// Invalid combination: torus needs two VCs for the dateline classes.
	bad := shortConfig()
	bad.NoCTopology = "torus"
	bad.NoCVirtualChannels = 1
	if _, err := New(bad); err == nil {
		t.Error("torus with one VC accepted")
	}
	bad = shortConfig()
	bad.NoCTopology = "klein-bottle"
	if _, err := New(bad); err == nil {
		t.Error("bogus topology accepted (nocConfig validation missing)")
	}
}

func TestFlitModeOnTorus(t *testing.T) {
	cfg := shortConfig()
	cfg.Horizon = 25 * sim.Millisecond
	cfg.NoCTopology = "torus"
	cfg.NoCMode = "flit"
	rep := mustRun(t, cfg)
	if rep.TasksCompleted == 0 {
		t.Error("flit-mode torus run did no work")
	}
}

// --- runtime guard tests -------------------------------------------------

func TestGuardPolicyValidation(t *testing.T) {
	cfg := shortConfig()
	cfg.GuardPolicy = "explode"
	if _, err := New(cfg); err == nil {
		t.Error("bogus guard policy accepted")
	}
	for _, p := range []string{"", "panic", "error", "log"} {
		cfg := shortConfig()
		cfg.GuardPolicy = p
		if _, err := New(cfg); err != nil {
			t.Errorf("guard policy %q rejected: %v", p, err)
		}
	}
}

func TestGuardCleanRunReportsNoViolations(t *testing.T) {
	rep := mustRun(t, shortConfig())
	if rep.GuardViolations != 0 {
		t.Errorf("healthy run tallied %d violations: %v", rep.GuardViolations, rep.GuardCounts)
	}
	if rep.GuardCounts != nil || rep.GuardRecord != nil {
		t.Error("clean run should leave guard counts/record nil for DeepEqual stability")
	}
	if rep.GuardPolicy != "error" {
		t.Errorf("default guard policy = %q, want error", rep.GuardPolicy)
	}
}

// poisonedSystem assembles a system and injects a NaN temperature into
// core 0's thermal node, the canonical numeric-runaway seed: the leakage
// model turns it into NaN core power on the next epoch, which then
// propagates into every derived metric. (Poisoning the power accountant
// directly would be undone by the epoch's own SetWorkload refresh.)
func poisonedSystem(t *testing.T, policy string) *System {
	t.Helper()
	cfg := shortConfig()
	cfg.GuardPolicy = policy
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.therm.Poison(0, math.NaN())
	return sys
}

func TestGuardErrorPolicyAbortsPoisonedRun(t *testing.T) {
	sys := poisonedSystem(t, "error")
	_, err := sys.Run()
	if err == nil {
		t.Fatal("NaN-poisoned run completed without error")
	}
	var verr *guard.ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("error %v is not a *guard.ViolationError", err)
	}
	if verr.V.Invariant != "power.finite" {
		t.Errorf("violated invariant = %q, want power.finite", verr.V.Invariant)
	}
}

func TestGuardLogPolicyDegradesButCompletes(t *testing.T) {
	sys := poisonedSystem(t, "log")
	sys.guard.SetLog(io.Discard)
	rep, err := sys.Run()
	if err != nil {
		t.Fatalf("log policy should complete the run: %v", err)
	}
	if rep.GuardViolations == 0 {
		t.Fatal("poisoned run under log policy tallied no violations")
	}
	if rep.GuardCounts["power.finite"] == 0 {
		t.Errorf("power.finite not counted: %v", rep.GuardCounts)
	}
	if len(rep.GuardRecord) == 0 {
		t.Error("no violations recorded")
	}
	if !strings.Contains(rep.Summary(), "guard") {
		t.Error("report summary omits the guard line")
	}
}

func TestGuardPanicPolicyPanics(t *testing.T) {
	sys := poisonedSystem(t, "panic")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic policy did not panic on a poisoned run")
		}
		if _, ok := r.(*guard.ViolationError); !ok {
			t.Errorf("panic value %v is not a *guard.ViolationError", r)
		}
	}()
	sys.Run()
}

func TestGuardCatchesThermalEscape(t *testing.T) {
	cfg := shortConfig()
	cfg.GuardPolicy = "error"
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A sub-ambient temperature is out of bounds but keeps the leakage
	// model finite, so thermal.bounds trips before any power invariant.
	sys.therm.Poison(3, 100)
	_, err = sys.Run()
	var verr *guard.ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("thermal escape not caught: %v", err)
	}
	if verr.V.Invariant != "thermal.bounds" {
		t.Errorf("violated invariant = %q, want thermal.bounds", verr.V.Invariant)
	}
}

func TestGuardCatchesOccupancyDrift(t *testing.T) {
	cfg := shortConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A free core that still owns a task is a scheduler/mapper bookkeeping
	// divergence no healthy run can produce.
	sys.cores[2].task = &taskRun{}
	if err := sys.checkOccupancy(2, 0); err == nil {
		t.Fatal("occupancy drift not flagged")
	} else {
		var verr *guard.ViolationError
		if !errors.As(err, &verr) || verr.V.Invariant != "mapper.occupancy" {
			t.Errorf("unexpected error %v", err)
		}
	}
}

func TestReportSanityFlagsNaN(t *testing.T) {
	rep := mustRun(t, shortConfig())
	if err := rep.Sanity(); err != nil {
		t.Fatalf("healthy report failed sanity: %v", err)
	}
	rep.MeanPowerW = math.NaN()
	if err := rep.Sanity(); err == nil {
		t.Error("NaN MeanPowerW passed sanity")
	}
	rep2 := mustRun(t, shortConfig())
	rep2.PerCoreUtil[1] = math.Inf(1)
	if err := rep2.Sanity(); err == nil {
		t.Error("Inf per-core utilization passed sanity")
	}
}

// TestLargeMeshRunUnderOneSecond is the scale acceptance gate: a
// 1024-core (32x32) mesh simulating 50 ms of system time must finish in
// under one wall-clock second on the serial epoch loop. Skipped under
// the race detector, whose instrumentation slows the kernel by an order
// of magnitude.
func TestLargeMeshRunUnderOneSecond(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock budget does not apply under -race")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 32, 32
	cfg.Horizon = 50 * sim.Millisecond
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if rep.TasksCompleted == 0 {
		t.Fatal("1024-core run did no work")
	}
	if elapsed >= time.Second {
		t.Fatalf("1024-core 50 ms run took %v, want < 1s", elapsed)
	}
	t.Logf("1024-core 50 ms run: %v wall clock", elapsed)
}
