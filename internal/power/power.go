// Package power implements the per-core and chip-level power model of the
// manycore system: dynamic + leakage power evaluation at an operating
// point, time-weighted chip accounting, energy integration, power traces,
// and thermal-design-power (TDP) budget bookkeeping.
package power

import (
	"fmt"
	"math"

	"potsim/internal/sim"
	"potsim/internal/tech"
)

// Breakdown is a power figure split into its dynamic and leakage parts.
type Breakdown struct {
	Dynamic float64 // watts
	Leakage float64 // watts
}

// Total returns dynamic plus leakage power in watts.
func (b Breakdown) Total() float64 { return b.Dynamic + b.Leakage }

// Add returns the component-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{Dynamic: b.Dynamic + o.Dynamic, Leakage: b.Leakage + o.Leakage}
}

// Model evaluates core power for a technology node.
type Model struct {
	Node tech.Node
}

// NewModel returns a power model for the given node.
func NewModel(node tech.Node) Model { return Model{Node: node} }

// Core returns the power of one core running at supply voltage v (volts),
// clock f (hertz), switching activity in [0,1+], and junction temperature
// tK (kelvin). A power-gated core (v == 0) consumes nothing.
func (m Model) Core(v, f, activity, tK float64) Breakdown {
	if v <= 0 {
		return Breakdown{}
	}
	return Breakdown{
		Dynamic: m.Node.DynamicPower(v, f, activity),
		Leakage: m.Node.LeakagePower(v, tK),
	}
}

// IdlePower is the power of a clock-gated but not power-gated core: no
// switching, leakage only.
func (m Model) IdlePower(v, tK float64) Breakdown {
	return m.Core(v, 0, 0, tK)
}

// Accountant tracks per-core power contributions, integrates chip energy
// over simulated time, and records a decimated power trace. Power values
// are split into workload and test components so the evaluation can report
// "power dedicated to testing" directly (claim C3).
type Accountant struct {
	cores    int //potlint:nosnap core count is configuration; Restore checks it
	workload []Breakdown
	test     []Breakdown

	energyJ     float64 // total chip energy since start
	testEnergyJ float64 // energy attributable to test routines
	lastAt      sim.Time

	trace       []TracePoint
	traceEvery  sim.Time //potlint:nosnap sampling cadence is configuration
	lastTraceAt sim.Time

	peakW    float64
	peakAt   sim.Time
	samples  int
	sumPower float64 // for time-weighted mean via energy/elapsed
}

// TracePoint is one sample of the chip power trace.
type TracePoint struct {
	At       sim.Time
	Workload float64 // watts drawn by workload + idle leakage
	Test     float64 // watts drawn by test routines
	Budget   float64 // TDP at sampling time
}

// Total returns workload plus test power of a trace point.
func (p TracePoint) Total() float64 { return p.Workload + p.Test }

// NewAccountant creates an accountant for the given core count. traceEvery
// controls trace decimation; zero disables tracing.
func NewAccountant(cores int, traceEvery sim.Time) (*Accountant, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("power: invalid core count %d", cores)
	}
	return &Accountant{
		cores:      cores,
		workload:   make([]Breakdown, cores),
		test:       make([]Breakdown, cores),
		traceEvery: traceEvery,
	}, nil
}

// SetWorkload records the workload (or idle) power of core id. The value
// stays in effect until the next call for that core.
func (a *Accountant) SetWorkload(id int, b Breakdown) { a.workload[id] = b }

// SetTest records the test-routine power of core id; zero when no test
// runs there.
func (a *Accountant) SetTest(id int, b Breakdown) { a.test[id] = b }

// WorkloadPower returns the current chip workload power in watts.
func (a *Accountant) WorkloadPower() float64 {
	sum := 0.0
	for _, b := range a.workload {
		sum += b.Total()
	}
	return sum
}

// TestPower returns the current chip test power in watts.
func (a *Accountant) TestPower() float64 {
	sum := 0.0
	for _, b := range a.test {
		sum += b.Total()
	}
	return sum
}

// ChipPower returns the current total chip power in watts.
func (a *Accountant) ChipPower() float64 { return a.WorkloadPower() + a.TestPower() }

// Advance integrates energy forward to time now, assuming the per-core
// powers set since the previous Advance were constant over the interval,
// and appends a trace sample when due. budget is the TDP in effect. A
// non-monotonic clock is reported as an error (the caller decides the
// violation policy), leaving the accountant's state untouched.
func (a *Accountant) Advance(now sim.Time, budget float64) error {
	dt := (now - a.lastAt).Seconds()
	if dt < 0 {
		return fmt.Errorf("power: time went backwards: %v -> %v", a.lastAt, now)
	}
	wl, tst := a.WorkloadPower(), a.TestPower()
	total := wl + tst
	a.energyJ += total * dt
	a.testEnergyJ += tst * dt
	a.lastAt = now
	a.samples++
	if total > a.peakW {
		a.peakW = total
		a.peakAt = now
	}
	if a.traceEvery > 0 && (now-a.lastTraceAt >= a.traceEvery || len(a.trace) == 0) {
		a.trace = append(a.trace, TracePoint{At: now, Workload: wl, Test: tst, Budget: budget})
		a.lastTraceAt = now
	}
	return nil
}

// EnergyJ returns total chip energy in joules since the start.
func (a *Accountant) EnergyJ() float64 { return a.energyJ }

// TestEnergyJ returns the energy spent by test routines in joules.
func (a *Accountant) TestEnergyJ() float64 { return a.testEnergyJ }

// TestEnergyShare returns test energy as a fraction of total energy,
// the quantity behind the paper's "2% of the actual consumed power" claim.
func (a *Accountant) TestEnergyShare() float64 {
	if a.energyJ <= 0 {
		return 0
	}
	return a.testEnergyJ / a.energyJ
}

// MeanPower returns the time-weighted mean chip power in watts.
func (a *Accountant) MeanPower() float64 {
	s := a.lastAt.Seconds()
	if s <= 0 {
		return 0
	}
	return a.energyJ / s
}

// Peak returns the highest instantaneous chip power observed and when.
func (a *Accountant) Peak() (float64, sim.Time) { return a.peakW, a.peakAt }

// Trace returns the recorded power trace (shared slice; do not modify).
func (a *Accountant) Trace() []TracePoint { return a.trace }

// Budget models the chip-wide power cap (TDP) and tracks violations.
// Dynamic power budgeting per the paper means the instantaneous chip power
// must stay at or below TDP; the controller may transiently overshoot, and
// those epochs are counted.
type Budget struct {
	TDP        float64 // watts
	violations int
	worstOver  float64
	checks     int
}

// NewBudget returns a budget with the given TDP in watts.
func NewBudget(tdpW float64) (*Budget, error) {
	if tdpW <= 0 || math.IsInf(tdpW, 0) || math.IsNaN(tdpW) {
		return nil, fmt.Errorf("power: invalid TDP %v", tdpW)
	}
	return &Budget{TDP: tdpW}, nil
}

// Check records one observation of chip power against the TDP and reports
// whether it violates the cap (with a 0.5% tolerance band for controller
// ripple, as dynamic capping schemes conventionally allow).
func (b *Budget) Check(chipPower float64) bool {
	b.checks++
	over := chipPower - b.TDP*1.005
	if over > 0 {
		b.violations++
		if over > b.worstOver {
			b.worstOver = over
		}
		return true
	}
	return false
}

// Violations returns how many checks exceeded the TDP and the worst
// overshoot in watts.
func (b *Budget) Violations() (count int, worstOverW float64) {
	return b.violations, b.worstOver
}

// ViolationRate returns the fraction of checks that violated the cap.
func (b *Budget) ViolationRate() float64 {
	if b.checks == 0 {
		return 0
	}
	return float64(b.violations) / float64(b.checks)
}
