// Package core assembles the manycore system: it wires the workload
// source, runtime mapper, PID power capper, DVFS governor, the power-aware
// online test scheduler, SBST execution, fault injection, the NoC latency
// model, and the thermal/aging integrators into a single deterministic
// epoch-driven simulation with a compact public API (New + Run).
package core

import (
	"fmt"

	"potsim/internal/aging"
	"potsim/internal/faults"
	"potsim/internal/guard"
	"potsim/internal/mapping"
	"potsim/internal/noc"
	"potsim/internal/sbst"
	"potsim/internal/scheduler"
	"potsim/internal/sim"
	"potsim/internal/tech"
	"potsim/internal/thermal"
	"potsim/internal/workload"
)

// TestPolicyKind selects the online test scheduling strategy.
type TestPolicyKind string

// Available test policies.
const (
	// PolicyPOTS is the proposed power-aware online test scheduler.
	PolicyPOTS TestPolicyKind = "pots"
	// PolicyNoTest disables online testing (throughput reference).
	PolicyNoTest TestPolicyKind = "notest"
	// PolicyNaive is the power-unaware idle tester.
	PolicyNaive TestPolicyKind = "naive"
	// PolicyPeriodic is the criticality-blind power-aware tester.
	PolicyPeriodic TestPolicyKind = "periodic"
)

// Config describes one simulation run. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Mesh geometry.
	Width, Height int

	// Node is the technology node (tech.Default() = 16nm).
	Node tech.Node

	// DVFSLevels is the operating-point count (>= 2).
	DVFSLevels int

	// TDPFraction sizes the power budget as a fraction of the chip's
	// peak power; TDPWatts overrides it when positive.
	TDPFraction float64
	TDPWatts    float64

	// Epoch is the control period of the mapper/capper/test scheduler.
	Epoch sim.Time

	// Horizon is the simulated run length.
	Horizon sim.Time

	// Seed roots every random stream of the run.
	Seed uint64

	// MeanInterarrival controls the Poisson application arrivals.
	MeanInterarrival sim.Time

	// Mix blends embedded and random task graphs.
	Mix workload.Mix

	// Burst modulates the Poisson arrivals with on/off phases (MMPP),
	// the dynamic-workload stress profile of the ICCD'14 substrate.
	Burst workload.Burstiness

	// TracePath, when set, replays a recorded workload trace (JSONL of
	// arrivals) instead of generating arrivals; see internal/workload.
	TracePath string

	// RecordTracePath, when set, writes this run's arrival stream as a
	// JSONL trace on completion (reproducible replays, cross-tool input).
	RecordTracePath string

	// MapperName selects the runtime mapping policy (FF/NN/CoNA/TUM).
	MapperName string

	// TestPolicy picks the online test scheduler.
	TestPolicy TestPolicyKind

	// SchedOptions tunes POTS (ablations flip these).
	SchedOptions scheduler.Options

	// Aging parameterises wear accumulation; Criticality converts it to
	// test urgency.
	Aging       aging.Params
	Criticality aging.CriticalityModel

	// EnableFaults turns on stochastic fault injection.
	EnableFaults bool
	Faults       faults.InjectorConfig

	// DVFSTransition is the stall a core suffers when its operating
	// point changes (PLL relock + voltage ramp; ~10 us on real silicon).
	// 0 makes transitions free.
	DVFSTransition sim.Time

	// GovernorRaceToIdle switches the per-core governor from the default
	// energy-proportional "eco" policy (lowest level meeting demand) to
	// race-to-idle (always run at the granted ceiling).
	GovernorRaceToIdle bool

	// ThermalEmergencyK is the junction temperature above which a core is
	// clamped to the lowest operating point regardless of demand or class
	// (the hardware thermal-throttle of real chips). 0 disables it.
	ThermalEmergencyK float64

	// ClassAwareDVFS makes the power capper treat application classes
	// with priorities (ICCD'14): when the cap binds, best-effort work is
	// throttled first, soft real-time next, and hard real-time demand is
	// protected the longest. Disabled, one global ceiling applies to all.
	ClassAwareDVFS bool

	// DecommissionOnDetect power-gates a core out of the resource pool
	// when a test detects a fault on it (fail-stop recovery, the journal
	// extension's handling of confirmed-faulty cores).
	DecommissionOnDetect bool

	// AbortPolicy controls preempted-test progress.
	AbortPolicy sbst.AbortPolicy

	// TestSegmentCycles chops SBST routines into sub-routines of at most
	// this many cycles (TC'16 test segmentation), making test work
	// preemption-friendly on busy systems. 0 keeps routines whole.
	TestSegmentCycles int64

	// TraceEvery decimates the power trace (0 = no trace).
	TraceEvery sim.Time

	// NoCBufferDepth, NoCVirtualChannels and NoCClockHz configure the
	// interconnect model (virtual channels matter in flit mode only).
	NoCBufferDepth     int
	NoCVirtualChannels int
	NoCClockHz         float64

	// NoCTopology selects the interconnect shape: "mesh" (default) or
	// "torus" (wraparound links; needs >= 2 virtual channels for the
	// dateline deadlock-avoidance classes).
	NoCTopology string

	// NoCMode selects how synchronisation messages (first-frame delivery
	// between tasks, SBST program fetches) traverse the interconnect:
	// "txn" uses the calibrated analytic transaction model (fast, the
	// default for long runs); "flit" co-simulates the actual wormhole
	// flit-level network cycle by cycle (slow; used to validate the
	// transaction model on short runs). The per-iteration pipeline stall
	// stays analytic in both modes.
	NoCMode string

	// EventLogCapacity bounds the in-memory event audit trail (mappings,
	// test outcomes, fault detections, ...); 0 disables it.
	EventLogCapacity int

	// MemControllers is the number of memory controllers on the mesh
	// border (1, 2 or 4, placed at corners); MemCapacityHz is each
	// controller's service capacity in memory cycles per second. Tasks'
	// memory-stall fractions stretch under controller contention (the
	// DFTS'15 off-chip bottleneck). MemControllers = 0 disables the
	// memory model.
	MemControllers int
	MemCapacityHz  float64

	// CommScale multiplies the task graphs' per-edge flit counts to model
	// the full per-frame stream volume of the pipelined workloads (the
	// published graph annotations are bandwidth summaries). It sets the
	// communication-to-computation ratio; 0 makes communication free.
	CommScale int

	// GuardPolicy selects how runtime invariant violations (non-finite
	// chip power, thermal runaway, a non-monotonic clock, occupancy
	// inconsistencies) are handled: "panic" crashes at the violation,
	// "error" (or "") stops the run with a structured *guard.ViolationError,
	// and "log" records the violation and continues, attaching the tally
	// to the report. See internal/guard.
	GuardPolicy string
}

// MaxMeshSide is the largest supported mesh dimension. It bounds what
// config validation accepts so oversized meshes fail fast with a clear
// message instead of deep inside assembly; 64x64 (4096 cores) is the
// largest geometry the experiments exercise and the NoC/mapper address
// spaces are tested to.
const MaxMeshSide = 64

// DefaultConfig returns the paper's headline setup: an 8x8 mesh at 16nm
// with 8 DVFS levels, a dark-silicon TDP at 35% of theoretical peak (a
// binding cap for the realistic workload mix), 100 microsecond control
// epochs and the proposed TUM + POTS combination.
func DefaultConfig() Config {
	ag := aging.DefaultParams()
	ag.AccelFactor = 5e7 // 1 simulated second ~ 1.6 effective years
	return Config{
		Width: 8, Height: 8,
		Node:               tech.Default(),
		DVFSLevels:         8,
		TDPFraction:        0.35,
		Epoch:              100 * sim.Microsecond,
		Horizon:            sim.Second,
		Seed:               1,
		MeanInterarrival:   2 * sim.Millisecond,
		Mix:                workload.DefaultMix(),
		MapperName:         "TUM",
		TestPolicy:         PolicyPOTS,
		ClassAwareDVFS:     true,
		ThermalEmergencyK:  368, // 95 C
		SchedOptions:       scheduler.DefaultOptions(),
		Aging:              ag,
		Criticality:        aging.DefaultCriticalityModel(),
		EnableFaults:       false,
		Faults:             faults.DefaultInjectorConfig(),
		AbortPolicy:        sbst.DiscardProgress,
		TraceEvery:         sim.Millisecond,
		MemControllers:     4,
		MemCapacityHz:      8e9,
		NoCBufferDepth:     4,
		NoCVirtualChannels: 2,
		NoCClockHz:         1e9,
		NoCTopology:        "mesh",
		NoCMode:            "txn",
		CommScale:          150,
	}
}

// Cores returns the core count of the configured mesh.
func (c Config) Cores() int { return c.Width * c.Height }

// TDP resolves the power budget in watts.
func (c Config) TDP() float64 {
	if c.TDPWatts > 0 {
		return c.TDPWatts
	}
	return c.TDPFraction * float64(c.Cores()) * c.Node.PeakCorePower()
}

// Validate checks the configuration before a run.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("core: invalid mesh %dx%d", c.Width, c.Height)
	}
	if c.Width > MaxMeshSide || c.Height > MaxMeshSide {
		return fmt.Errorf("core: mesh %dx%d exceeds the supported maximum %dx%d",
			c.Width, c.Height, MaxMeshSide, MaxMeshSide)
	}
	if err := c.Node.Validate(); err != nil {
		return err
	}
	if c.DVFSLevels < 2 {
		return fmt.Errorf("core: need at least 2 DVFS levels")
	}
	if c.TDP() <= 0 {
		return fmt.Errorf("core: non-positive TDP")
	}
	if c.Epoch <= 0 || c.Horizon <= 0 {
		return fmt.Errorf("core: Epoch and Horizon must be positive")
	}
	if c.Horizon < c.Epoch {
		return fmt.Errorf("core: Horizon shorter than one epoch")
	}
	if c.MeanInterarrival <= 0 {
		return fmt.Errorf("core: MeanInterarrival must be positive")
	}
	if err := c.Burst.Validate(); err != nil {
		return err
	}
	if c.DVFSTransition < 0 {
		return fmt.Errorf("core: DVFSTransition must be non-negative")
	}
	if c.TracePath != "" && c.RecordTracePath != "" {
		return fmt.Errorf("core: replaying and recording a trace at once is circular")
	}
	if _, err := mapping.ByName(c.MapperName); err != nil {
		return err
	}
	switch c.TestPolicy {
	case PolicyPOTS, PolicyNoTest, PolicyNaive, PolicyPeriodic:
	default:
		return fmt.Errorf("core: unknown test policy %q", c.TestPolicy)
	}
	if err := c.Aging.Validate(); err != nil {
		return err
	}
	if c.EnableFaults {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if c.NoCBufferDepth < 1 || c.NoCClockHz <= 0 {
		return fmt.Errorf("core: invalid NoC parameters")
	}
	if c.CommScale < 0 {
		return fmt.Errorf("core: CommScale must be non-negative")
	}
	if _, err := guard.ParsePolicy(c.GuardPolicy); err != nil {
		return err
	}
	if c.MemControllers < 0 || c.MemControllers > 4 {
		return fmt.Errorf("core: MemControllers must be 0..4")
	}
	if c.MemControllers > 0 && c.MemCapacityHz <= 0 {
		return fmt.Errorf("core: MemCapacityHz must be positive")
	}
	if c.MemControllers > 2 && (c.Width < 2 || c.Height < 2) {
		// Controllers 3 and 4 sit on the remaining mesh corners; on a
		// single-row or single-column mesh those corners coincide with
		// the first two, silently halving the modelled capacity.
		return fmt.Errorf("core: %d memory controllers need a mesh of at least 2x2 (corners coincide on %dx%d)",
			c.MemControllers, c.Width, c.Height)
	}
	switch c.NoCMode {
	case "", "txn", "flit":
	default:
		return fmt.Errorf("core: unknown NoCMode %q (want txn or flit)", c.NoCMode)
	}
	switch c.NoCTopology {
	case "", "mesh", "torus":
	default:
		return fmt.Errorf("core: unknown NoCTopology %q (want mesh or torus)", c.NoCTopology)
	}
	if c.NoCTopology == "torus" && (c.Width < 2 || c.Height < 2) {
		// A wraparound link on a length-1 dimension is a router self-loop.
		return fmt.Errorf("core: torus topology needs both mesh dimensions >= 2, got %dx%d",
			c.Width, c.Height)
	}
	if err := c.nocConfig().Validate(); err != nil {
		return err
	}
	biggest := 0
	for _, g := range workload.Library() {
		if g.Size() > biggest {
			biggest = g.Size()
		}
	}
	if c.Cores() < biggest {
		return fmt.Errorf("core: mesh %dx%d too small for the largest library graph (%d tasks)",
			c.Width, c.Height, biggest)
	}
	return nil
}

// nocConfig derives the interconnect configuration.
func (c Config) nocConfig() noc.Config {
	vcs := c.NoCVirtualChannels
	if vcs < 1 {
		vcs = 1
	}
	topo := noc.TopologyMesh
	if c.NoCTopology == "torus" {
		topo = noc.TopologyTorus
	}
	return noc.Config{
		Width: c.Width, Height: c.Height, Topology: topo,
		BufferDepth: c.NoCBufferDepth, VirtualChannels: vcs,
		ClockHz: c.NoCClockHz,
	}
}

// thermalConfig derives the RC grid configuration.
func (c Config) thermalConfig() thermal.Config {
	return thermal.DefaultConfig(c.Width, c.Height)
}
