package core

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"potsim/internal/faults"
	"potsim/internal/guard"
	"potsim/internal/power"
	"potsim/internal/scheduler"
	"potsim/internal/sim"
	"potsim/internal/workload"
)

// Report is the outcome of one simulation run.
type Report struct {
	Config  Config
	Horizon sim.Time

	// Workload outcome.
	AppsArrived    int
	AppsMapped     int
	AppsCompleted  int
	TasksCompleted int
	// ThroughputTasksPerSec is the headline throughput metric the paper's
	// <1% penalty claim is measured on.
	ThroughputTasksPerSec float64
	MeanAppLatency        sim.Time
	MeanQueueDelay        sim.Time
	MeanDispersion        float64
	RejectedEpochs        int
	MeanCoreUtilization   float64

	// Power outcome.
	TDPWatts        float64
	MeanPowerW      float64
	PeakPowerW      float64
	EnergyJ         float64
	TestEnergyJ     float64
	TestEnergyShare float64
	TDPViolations   int
	WorstOverW      float64
	ViolationRate   float64
	Trace           []power.TracePoint

	// Thermal outcome.
	PeakTempK float64
	MeanTempK float64
	// ThermalEmergencies counts core-epochs the hardware thermal
	// throttle clamped a running core to the lowest operating point.
	ThermalEmergencies int64

	// DVFSTransitions counts operating-point switches of running cores.
	DVFSTransitions int64

	// Memory-path outcome (zero when the memory model is disabled).
	MemControllers int
	MeanMemRho     float64
	PeakMemRho     float64

	// Test scheduling outcome (zeroed for NoTest).
	PolicyName       string
	TestsStarted     int
	TestsCompleted   int
	TestsAborted     int
	TestsSkipPower   int
	TestsSkipThermal int
	LevelRuns        []int
	LevelCoverage    float64
	PerCoreTests     []int
	PerCoreUtil      []float64
	PerCoreStress    []float64
	// PerCoreIdleFrac is the fraction of epochs each core spent free or
	// testing — the opportunity window online testing can use.
	PerCoreIdleFrac []float64
	TestDeliveries  int

	// Per-class outcome (hard-rt, soft-rt, best-effort): completed tasks
	// and mean DVFS slowdown experienced while running. The class-aware
	// capper should show slowdown(hard) <= slowdown(soft) <= slowdown(BE)
	// under a binding budget.
	ClassTasks    map[string]int
	ClassSlowdown map[string]float64

	// Fault outcome (EnableFaults runs only).
	FaultStats faults.Stats
	// DecommissionedCores lists cores retired after fault detection.
	DecommissionedCores []int

	// Guard outcome: runtime invariant violations observed during the
	// run. Non-zero counts appear only under the log-and-continue policy
	// — the error policy stops the run at the first violation, and the
	// panic policy never reaches the report. GuardRecord is bounded (the
	// first violations, GuardDropped counts the overflow).
	GuardPolicy     string
	GuardViolations int
	GuardCounts     map[string]int    `json:",omitempty"`
	GuardRecord     []guard.Violation `json:",omitempty"`
	GuardDropped    int
}

// report assembles the final Report after a run.
func (s *System) report() *Report {
	r := &Report{
		Config:             s.cfg,
		Horizon:            s.cfg.Horizon,
		AppsArrived:        s.arrived,
		AppsMapped:         s.mapped,
		AppsCompleted:      s.completedApps,
		TasksCompleted:     s.completedTasks,
		RejectedEpochs:     s.rejectedEpochs,
		TDPWatts:           s.budget.TDP,
		MeanPowerW:         s.acct.MeanPower(),
		EnergyJ:            s.acct.EnergyJ(),
		TestEnergyJ:        s.acct.TestEnergyJ(),
		Trace:              s.acct.Trace(),
		PeakTempK:          s.therm.PeakEver(),
		MeanTempK:          s.therm.MeanTemperature(),
		ThermalEmergencies: s.thermalEmergencies,
		DVFSTransitions:    s.dvfsTransitions,
		PolicyName:         s.policy.Name(),
		TestDeliveries:     s.testDelivery,
	}
	if s.memory != nil {
		r.MemControllers = s.memory.Controllers()
		r.MeanMemRho = s.memory.MeanRho()
		r.PeakMemRho = s.memory.PeakRho()
	}
	r.ThroughputTasksPerSec = float64(s.completedTasks) / s.cfg.Horizon.Seconds()
	r.MeanAppLatency = meanTime(s.appLatency)
	r.MeanQueueDelay = meanTime(s.queueDelay)
	r.MeanDispersion = meanFloat(s.dispersions)
	if s.totalEpochs > 0 {
		r.MeanCoreUtilization = float64(s.busyCoreEpochs) /
			float64(s.totalEpochs*int64(len(s.cores)))
	}
	r.PeakPowerW, _ = s.acct.Peak()
	r.TestEnergyShare = s.acct.TestEnergyShare()
	r.TDPViolations, r.WorstOverW = s.budget.Violations()
	r.ViolationRate = s.budget.ViolationRate()

	if s.pots != nil {
		st := s.pots.Stats()
		r.TestsStarted = st.Started
		r.TestsCompleted = st.Completed
		r.TestsAborted = st.Aborted
		r.TestsSkipPower = st.SkippedPower
		r.TestsSkipThermal = st.SkippedThermal
		r.LevelRuns = st.LevelRuns
		r.LevelCoverage = st.CoverageOfLevels()
		r.PerCoreTests = st.PerCoreCompleted
	}
	r.PerCoreUtil = make([]float64, len(s.cores))
	r.PerCoreStress = make([]float64, len(s.cores))
	r.PerCoreIdleFrac = make([]float64, len(s.cores))
	for id := range s.cores {
		r.PerCoreUtil[id] = s.ager.Utilization(id)
		r.PerCoreStress[id] = s.ager.Stress(id)
		if s.totalEpochs > 0 {
			r.PerCoreIdleFrac[id] = float64(s.idleEpochs[id]) / float64(s.totalEpochs)
		}
	}
	if s.board != nil {
		r.FaultStats = s.board.Summarise()
	}
	r.DecommissionedCores = append([]int(nil), s.decommissioned...)
	r.attachGuard(s.guard)
	r.ClassTasks = make(map[string]int, 3)
	r.ClassSlowdown = make(map[string]float64, 3)
	for _, class := range []workload.Class{workload.HardRT, workload.SoftRT, workload.BestEffort} {
		r.ClassTasks[class.String()] = s.classTasks[class]
		if s.classSlowObs[class] > 0 {
			r.ClassSlowdown[class.String()] = s.classSlowSum[class] / float64(s.classSlowObs[class])
		}
	}
	return r
}

// attachGuard copies the checker's violation tallies into the report.
func (r *Report) attachGuard(c *guard.Checker) {
	r.GuardPolicy = c.Policy().String()
	r.GuardViolations = c.Violations()
	if r.GuardViolations == 0 {
		r.GuardCounts, r.GuardRecord, r.GuardDropped = nil, nil, 0
		return
	}
	r.GuardCounts = c.Counts()
	r.GuardRecord, r.GuardDropped = c.Record()
}

// Sanity verifies that every headline metric of the report is finite —
// the last guard between a numerically sick simulation and a rendered
// experiment table. It reports the first offending field.
func (r *Report) Sanity() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"ThroughputTasksPerSec", r.ThroughputTasksPerSec},
		{"MeanDispersion", r.MeanDispersion},
		{"MeanCoreUtilization", r.MeanCoreUtilization},
		{"TDPWatts", r.TDPWatts},
		{"MeanPowerW", r.MeanPowerW},
		{"PeakPowerW", r.PeakPowerW},
		{"EnergyJ", r.EnergyJ},
		{"TestEnergyJ", r.TestEnergyJ},
		{"TestEnergyShare", r.TestEnergyShare},
		{"WorstOverW", r.WorstOverW},
		{"ViolationRate", r.ViolationRate},
		{"PeakTempK", r.PeakTempK},
		{"MeanTempK", r.MeanTempK},
		{"MeanMemRho", r.MeanMemRho},
		{"PeakMemRho", r.PeakMemRho},
		{"LevelCoverage", r.LevelCoverage},
	}
	for _, c := range checks {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("core: report metric %s is %v", c.name, c.v)
		}
	}
	for id, u := range r.PerCoreUtil {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return fmt.Errorf("core: report metric PerCoreUtil[%d] is %v", id, u)
		}
	}
	for id, st := range r.PerCoreStress {
		if math.IsNaN(st) || math.IsInf(st, 0) {
			return fmt.Errorf("core: report metric PerCoreStress[%d] is %v", id, st)
		}
	}
	return nil
}

func meanTime(xs []sim.Time) sim.Time {
	if len(xs) == 0 {
		return 0
	}
	var sum sim.Time
	for _, x := range xs {
		sum += x
	}
	return sum / sim.Time(len(xs))
}

func meanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanTestIntervalMS returns the average per-core test interval in
// milliseconds over cores that completed at least one test, or -1.
func (r *Report) MeanTestIntervalMS() float64 {
	n, sum := 0, 0.0
	for _, c := range r.PerCoreTests {
		if c > 0 {
			sum += r.Horizon.Millis() / float64(c)
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return sum / float64(n)
}

// Summary renders the report as a human-readable block.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "potsim run: %dx%d %s mesh, policy=%s mapper=%s horizon=%v\n",
		r.Config.Width, r.Config.Height, r.Config.Node.Name,
		r.PolicyName, r.Config.MapperName, r.Horizon)
	fmt.Fprintf(&b, "  workload : %d arrived, %d mapped, %d apps / %d tasks completed\n",
		r.AppsArrived, r.AppsMapped, r.AppsCompleted, r.TasksCompleted)
	fmt.Fprintf(&b, "  perf     : %.0f tasks/s, app latency %v, queue delay %v, core util %.1f%%\n",
		r.ThroughputTasksPerSec, r.MeanAppLatency, r.MeanQueueDelay,
		100*r.MeanCoreUtilization)
	fmt.Fprintf(&b, "  power    : mean %.2f W / peak %.2f W under TDP %.2f W, violations %d (%.2f%%)\n",
		r.MeanPowerW, r.PeakPowerW, r.TDPWatts, r.TDPViolations, 100*r.ViolationRate)
	fmt.Fprintf(&b, "  testing  : %d done (%d aborted, %d power-skipped), %.2f%% of energy, level coverage %.0f%%\n",
		r.TestsCompleted, r.TestsAborted, r.TestsSkipPower,
		100*r.TestEnergyShare, 100*r.LevelCoverage)
	fmt.Fprintf(&b, "  thermal  : peak %.1f K, mean %.1f K", r.PeakTempK, r.MeanTempK)
	if r.ThermalEmergencies > 0 {
		fmt.Fprintf(&b, ", %d emergency throttles", r.ThermalEmergencies)
	}
	b.WriteString("\n")
	if r.MemControllers > 0 {
		fmt.Fprintf(&b, "  memory   : %d controllers, mean rho %.2f, peak rho %.2f\n",
			r.MemControllers, r.MeanMemRho, r.PeakMemRho)
	}
	if r.FaultStats.Injected > 0 {
		fmt.Fprintf(&b, "  faults   : %d injected, %d detected (%.0f%%), mean latency %v, %d corruptions\n",
			r.FaultStats.Injected, r.FaultStats.Detected,
			100*r.FaultStats.DetectionRate, r.FaultStats.MeanLatency,
			r.FaultStats.Corruptions)
	}
	if len(r.DecommissionedCores) > 0 {
		fmt.Fprintf(&b, "  retired  : %d cores decommissioned after detection: %v\n",
			len(r.DecommissionedCores), r.DecommissionedCores)
	}
	if r.GuardViolations > 0 {
		fmt.Fprintf(&b, "  guard    : %d invariant violations (policy=%s): %s\n",
			r.GuardViolations, r.GuardPolicy, guardCountsLine(r.GuardCounts))
	}
	return b.String()
}

// guardCountsLine renders per-invariant counts deterministically.
func guardCountsLine(counts map[string]int) string {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%d", name, counts[name])
	}
	return strings.Join(parts, " ")
}

// LevelHistogram renders the per-level completed-test histogram (E4):
// one row per level, its bar scaled to 40 columns at the busiest level.
func (r *Report) LevelHistogram() string {
	if len(r.LevelRuns) == 0 {
		return "(no tests executed)\n"
	}
	busiest := 0
	for _, n := range r.LevelRuns {
		if n > busiest {
			busiest = n
		}
	}
	var b strings.Builder
	for lvl, n := range r.LevelRuns {
		bar := 0
		if busiest > 0 {
			bar = n * 40 / busiest
		}
		label := fmt.Sprintf("[%.3g,%.3g)", float64(lvl), float64(lvl+1))
		fmt.Fprintf(&b, "%16s %6d %s\n", label, n, strings.Repeat("#", bar))
	}
	return b.String()
}

// ThroughputPenalty returns the relative throughput loss of this run
// against a reference (typically the NoTest baseline with the same seed):
// (ref - this)/ref. Negative values mean this run was faster.
func (r *Report) ThroughputPenalty(ref *Report) float64 {
	if ref == nil || ref.ThroughputTasksPerSec <= 0 {
		return 0
	}
	return (ref.ThroughputTasksPerSec - r.ThroughputTasksPerSec) / ref.ThroughputTasksPerSec
}

var _ scheduler.Policy = (*scheduler.POTS)(nil)

// JSON serialises the report (configuration included) for external
// tooling. Times are nanoseconds of simulated time.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
