// Package scheduler implements the paper's primary contribution: the
// power-aware non-intrusive online test scheduler (POTS). Each control
// epoch it ranks idle cores by test criticality (an aging- and
// utilization-derived urgency), admits SBST routines into the power slack
// left under the TDP by the workload, rotates the DVFS level tests run at
// so every operating point gets covered, and yields a core instantly when
// the mapper claims it. Baselines (no testing, power-unaware idle testing,
// blind periodic testing) and ablation switches live here too.
package scheduler

import (
	"fmt"
	"math"
	"sort"

	"potsim/internal/aging"
	"potsim/internal/dvfs"
	"potsim/internal/power"
	"potsim/internal/sbst"
	"potsim/internal/sim"
)

// CoreSnapshot is the per-core state the scheduler sees at an epoch.
type CoreSnapshot struct {
	ID      int
	Idle    bool // free for testing: no task and no reservation
	Testing bool // an SBST routine is already in flight here
	Stress  float64
	Util    float64
	TempK   float64
}

// Decision is one test launch: run Routine on Core at DVFS level Level.
type Decision struct {
	Core    int
	Routine sbst.Routine
	Level   int
}

// Policy is an online test-scheduling strategy.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Plan returns the test launches for this epoch. powerSlackW is the
	// headroom under the TDP after workload power; power-aware policies
	// must fit their launches inside it. The returned slice is only valid
	// until the next Plan call on the same policy (implementations reuse
	// scratch buffers); callers consume it immediately.
	Plan(now sim.Time, cores []CoreSnapshot, powerSlackW float64) []Decision
	// OnTestComplete informs the policy a test finished on core at the
	// given DVFS level.
	OnTestComplete(core, level int, now sim.Time)
	// OnTestAborted informs the policy a test was preempted on core.
	OnTestAborted(core int, now sim.Time)
}

// Options toggles the POTS design points for the ablation study (E10).
type Options struct {
	// PowerAware gates launches on the available power slack; disabling
	// it reproduces the power-unaware baseline behaviour.
	PowerAware bool
	// UseCriticality ranks cores by the aging-derived criticality and
	// skips cores that are not yet due. Disabled, cores are tested
	// round-robin whenever idle.
	UseCriticality bool
	// RotateLevels cycles the DVFS level used for consecutive tests of a
	// core so all operating points are eventually covered (claim C5).
	// Disabled, every test runs at the top level.
	RotateLevels bool
	// MinCriticality is the urgency below which a core is left alone.
	MinCriticality float64
	// MaxConcurrent bounds simultaneous tests (0 = unlimited); real
	// systems bound test traffic on the NoC.
	MaxConcurrent int
	// MaxTestTempK skips cores hotter than this (0 = no thermal guard):
	// SBST routines are the most power-hungry thing a core can run, and
	// launching one on an already-hot core risks a thermal emergency.
	MaxTestTempK float64
}

// DefaultOptions enables the full proposed design.
func DefaultOptions() Options {
	return Options{
		PowerAware:     true,
		UseCriticality: true,
		RotateLevels:   true,
		MinCriticality: 0.5,
		MaxConcurrent:  0,
		MaxTestTempK:   358, // 85 C junction guard
	}
}

// POTS is the proposed power-aware online test scheduler.
type POTS struct {
	name     string                 //potlint:nosnap display name, fixed at construction
	opts     Options                //potlint:nosnap configuration, rebuilt by the caller
	model    power.Model            //potlint:nosnap stateless model, rebuilt by the caller
	table    *dvfs.Table            //potlint:nosnap operating-point table, rebuilt by the caller
	crit     aging.CriticalityModel //potlint:nosnap stateless model, rebuilt by the caller
	routines []sbst.Routine         //potlint:nosnap routine library is configuration

	lastTest  []sim.Time
	nextLevel []int
	nextRtn   []int
	rrCursor  int

	// Plan scratch state, reused across epochs so the steady-state epoch
	// loop schedules without allocating: candidate and decision buffers
	// plus pre-allocated sort.Interface adapters (a heap-held pointer
	// passed to sort.Sort does not box).
	cands   []planCand //potlint:nosnap per-epoch plan scratch, rewritten before every use
	plan    []Decision //potlint:nosnap per-epoch plan scratch, rewritten before every use
	urgSort urgSorter  //potlint:nosnap pre-allocated sort adapter over cands
	rrSort  rrSorter   //potlint:nosnap pre-allocated sort adapter over cands

	stats Stats
}

// planCand is one admissible idle core considered by Plan.
type planCand struct {
	snap CoreSnapshot
	urg  float64
}

// urgSorter orders candidates by descending urgency, tie-broken by
// ascending core ID. Unique IDs make this a strict total order, so any
// correct sort algorithm produces the identical permutation the previous
// sort.Slice call did.
type urgSorter struct{ c []planCand }

func (s *urgSorter) Len() int      { return len(s.c) }
func (s *urgSorter) Swap(i, j int) { s.c[i], s.c[j] = s.c[j], s.c[i] }
func (s *urgSorter) Less(i, j int) bool {
	//potlint:floateq sort tie-break: equal urgencies are computed identically, so exact inequality is the right test
	if s.c[i].urg != s.c[j].urg {
		return s.c[i].urg > s.c[j].urg
	}
	return s.c[i].snap.ID < s.c[j].snap.ID
}

// rrSorter orders candidates by round-robin distance from the epoch's
// cursor — unique IDs again make the key a strict total order.
type rrSorter struct {
	c      []planCand
	n      int
	cursor int
}

func (s *rrSorter) Len() int      { return len(s.c) }
func (s *rrSorter) Swap(i, j int) { s.c[i], s.c[j] = s.c[j], s.c[i] }
func (s *rrSorter) Less(i, j int) bool {
	a := (s.c[i].snap.ID - s.cursor + s.n) % s.n
	b := (s.c[j].snap.ID - s.cursor + s.n) % s.n
	return a < b
}

// Stats counts scheduler activity over a run.
type Stats struct {
	Started   int
	Completed int
	Aborted   int
	// Skipped counts admission failures due to insufficient power slack.
	SkippedPower int
	// SkippedThermal counts cores left untested because they were hotter
	// than the thermal guard.
	SkippedThermal int
	// LevelRuns histograms completed tests by DVFS level.
	LevelRuns []int
	// PerCoreCompleted counts completed tests per core.
	PerCoreCompleted []int
}

// Config wires a POTS instance.
type Config struct {
	Cores       int
	Model       power.Model
	Table       *dvfs.Table
	Criticality aging.CriticalityModel
	Routines    []sbst.Routine
	Options     Options
	// Name overrides the policy name in reports (for ablation variants).
	Name string
}

// NewPOTS builds the proposed scheduler.
func NewPOTS(cfg Config) (*POTS, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("scheduler: invalid core count %d", cfg.Cores)
	}
	if cfg.Table == nil {
		return nil, fmt.Errorf("scheduler: nil DVFS table")
	}
	if len(cfg.Routines) == 0 {
		return nil, fmt.Errorf("scheduler: no SBST routines")
	}
	for _, r := range cfg.Routines {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	name := cfg.Name
	if name == "" {
		name = "POTS"
	}
	p := &POTS{
		name: name, opts: cfg.Options, model: cfg.Model, table: cfg.Table,
		crit: cfg.Criticality, routines: cfg.Routines,
		lastTest:  make([]sim.Time, cfg.Cores),
		nextLevel: make([]int, cfg.Cores),
		nextRtn:   make([]int, cfg.Cores),
	}
	p.stats.LevelRuns = make([]int, cfg.Table.Levels())
	p.stats.PerCoreCompleted = make([]int, cfg.Cores)
	for i := range p.nextLevel {
		p.nextLevel[i] = cfg.Table.Highest() // first test validates full speed
	}
	return p, nil
}

// Name implements Policy.
func (p *POTS) Name() string { return p.name }

// Stats returns a copy of the activity counters.
func (p *POTS) Stats() Stats {
	s := p.stats
	s.LevelRuns = append([]int(nil), p.stats.LevelRuns...)
	s.PerCoreCompleted = append([]int(nil), p.stats.PerCoreCompleted...)
	return s
}

// Criticality computes the current urgency of a core, exposed so the
// mapper can be test-aware (TUM reads this through the system).
func (p *POTS) Criticality(core int, now sim.Time, stress, util float64) float64 {
	return p.crit.Criticality(now-p.lastTest[core], stress, util)
}

// estimatePower predicts the chip-power cost of running routine r at
// level on a core at temperature tempK.
func (p *POTS) estimatePower(r sbst.Routine, level int, tempK float64) float64 {
	pt := p.table.Point(level)
	return p.model.Core(pt.Voltage, pt.FreqHz, r.MeanActivity(), tempK).Total()
}

// Plan implements Policy. The returned slice is scratch state reused by
// the next Plan call; callers consume it before planning again (the epoch
// loop launches the decisions immediately).
func (p *POTS) Plan(now sim.Time, cores []CoreSnapshot, powerSlackW float64) []Decision {
	cands := p.cands[:0]
	inFlight := 0
	for _, c := range cores {
		if c.Testing {
			inFlight++
		}
		if !c.Idle || c.Testing {
			continue
		}
		if p.opts.MaxTestTempK > 0 && c.TempK > p.opts.MaxTestTempK {
			p.stats.SkippedThermal++
			continue
		}
		urg := p.crit.Criticality(now-p.lastTest[c.ID], c.Stress, c.Util)
		if p.opts.UseCriticality && urg < p.opts.MinCriticality {
			continue
		}
		cands = append(cands, planCand{snap: c, urg: urg})
	}
	p.cands = cands
	if p.opts.UseCriticality {
		p.urgSort.c = cands
		sort.Sort(&p.urgSort)
	} else {
		// Round-robin start point so low-numbered cores are not favoured.
		p.rrSort.c, p.rrSort.n, p.rrSort.cursor = cands, len(cores), p.rrCursor
		sort.Sort(&p.rrSort)
		if len(cores) > 0 {
			p.rrCursor = (p.rrCursor + 1) % len(cores)
		}
	}

	slack := powerSlackW
	out := p.plan[:0]
	for _, c := range cands {
		if p.opts.MaxConcurrent > 0 && inFlight+len(out) >= p.opts.MaxConcurrent {
			break
		}
		core := c.snap.ID
		level := p.table.Highest()
		if p.opts.RotateLevels {
			level = p.nextLevel[core]
		}
		rtn := p.routines[p.nextRtn[core]%len(p.routines)]
		need := p.estimatePower(rtn, level, c.snap.TempK)
		if p.opts.PowerAware {
			if need > slack {
				p.stats.SkippedPower++
				continue
			}
			slack -= need
		}
		out = append(out, Decision{Core: core, Routine: rtn, Level: level})
		p.stats.Started++
	}
	p.plan = out
	return out
}

// OnTestComplete implements Policy. level is the DVFS level the completed
// test actually executed at. With segmented routines (TC'16 chunking),
// only the session-closing segment credits the core's test interval and
// rotates its level, so a due core keeps running its session's remaining
// segments back-to-back across idle windows until the pass completes.
func (p *POTS) OnTestComplete(core, level int, now sim.Time) {
	just := p.routines[p.nextRtn[core]%len(p.routines)]
	if level >= 0 && level < len(p.stats.LevelRuns) {
		p.stats.LevelRuns[level]++
	}
	p.stats.PerCoreCompleted[core]++
	p.stats.Completed++
	p.nextRtn[core]++
	if !just.EndsSession {
		return // mid-session segment: the core stays due
	}
	p.lastTest[core] = now
	// Rotate the level downward through the table, wrapping to the top,
	// so consecutive sessions of a core sweep every operating point.
	p.nextLevel[core]--
	if p.nextLevel[core] < 0 {
		p.nextLevel[core] = p.table.Highest()
	}
}

// OnTestAborted implements Policy.
func (p *POTS) OnTestAborted(core int, now sim.Time) {
	p.stats.Aborted++
}

// NoTest is the baseline that never schedules tests.
type NoTest struct{}

// Name implements Policy.
func (NoTest) Name() string { return "NoTest" }

// Plan implements Policy.
func (NoTest) Plan(sim.Time, []CoreSnapshot, float64) []Decision { return nil }

// OnTestComplete implements Policy.
func (NoTest) OnTestComplete(int, int, sim.Time) {}

// OnTestAborted implements Policy.
func (NoTest) OnTestAborted(int, sim.Time) {}

// NewNaiveIdle returns the power-unaware baseline: it tests every idle
// core the moment it is due, at full speed, without consulting the power
// budget — the state-of-the-art behaviour the paper argues against.
func NewNaiveIdle(cfg Config) (*POTS, error) {
	cfg.Options = Options{
		PowerAware:     false,
		UseCriticality: true,
		RotateLevels:   false,
		MinCriticality: cfg.Options.MinCriticality,
	}
	//potlint:floateq 0 is the exact unset sentinel of the zero-value Config
	if cfg.Options.MinCriticality == 0 {
		cfg.Options.MinCriticality = 0.5
	}
	if cfg.Name == "" {
		cfg.Name = "NaiveIdle"
	}
	return NewPOTS(cfg)
}

// NewPeriodic returns a blind periodic tester: round-robin over idle
// cores whenever they are idle, power-aware but criticality-blind.
func NewPeriodic(cfg Config) (*POTS, error) {
	cfg.Options = Options{
		PowerAware:     true,
		UseCriticality: false,
		RotateLevels:   true,
	}
	if cfg.Name == "" {
		cfg.Name = "Periodic"
	}
	return NewPOTS(cfg)
}

// CoverageOfLevels reports the fraction of DVFS levels that saw at least
// one completed test (claim C5: should reach 1.0).
func (s Stats) CoverageOfLevels() float64 {
	if len(s.LevelRuns) == 0 {
		return 0
	}
	hit := 0
	for _, n := range s.LevelRuns {
		if n > 0 {
			hit++
		}
	}
	return float64(hit) / float64(len(s.LevelRuns))
}

// PredictMeanInterval is the closed-form steady-state estimate of the
// mean test interval a core sustains: testing is either demand-limited
// (the criticality target — cores are not tested before they are due) or
// supply-limited (a core can only test while idle and only when the power
// budget admits the launch), whichever is slower:
//
//	interval = max(target, meanTestDuration / (idleFrac * admitProb))
//
// The TC'16 extension uses exactly this kind of capacity argument to size
// the test-interval target against the workload.
func PredictMeanInterval(target, meanTestDur sim.Time, idleFrac, admitProb float64) sim.Time {
	if idleFrac <= 0 || admitProb <= 0 {
		return math.MaxInt64
	}
	if idleFrac > 1 {
		idleFrac = 1
	}
	if admitProb > 1 {
		admitProb = 1
	}
	supply := sim.Time(float64(meanTestDur) / (idleFrac * admitProb))
	if supply > target {
		return supply
	}
	return target
}

// MeanRoutineDuration returns the average run time of the routine set
// across all DVFS levels of the table — the expected test duration under
// level rotation.
func MeanRoutineDuration(routines []sbst.Routine, table *dvfs.Table) sim.Time {
	if len(routines) == 0 || table == nil || table.Levels() == 0 {
		return 0
	}
	var sum sim.Time
	n := 0
	for _, r := range routines {
		for lvl := 0; lvl < table.Levels(); lvl++ {
			sum += r.Duration(table.Point(lvl).FreqHz)
			n++
		}
	}
	return sum / sim.Time(n)
}
