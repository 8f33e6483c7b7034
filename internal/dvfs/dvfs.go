// Package dvfs provides dynamic voltage and frequency scaling support:
// per-node operating-point tables (down to near-threshold), a PID-based
// chip-wide power capper in the style of the authors' ICCD'14 dark-silicon
// power manager, and a per-core governor that picks concrete levels.
package dvfs

import (
	"fmt"
	"math"

	"potsim/internal/tech"
)

// Table is an immutable, sorted list of DVFS operating points for one
// technology node. Level 0 is the near-threshold point; the highest level
// is (VNom, FMax).
type Table struct {
	points []tech.OperatingPoint
}

// NewTable builds a table with the given number of levels (minimum 2).
func NewTable(node tech.Node, levels int) *Table {
	return &Table{points: node.OperatingPoints(levels)}
}

// Levels returns the number of operating points.
func (t *Table) Levels() int { return len(t.points) }

// Point returns operating point at the given level, clamping out-of-range
// levels to the table bounds.
func (t *Table) Point(level int) tech.OperatingPoint {
	if level < 0 {
		level = 0
	}
	if level >= len(t.points) {
		level = len(t.points) - 1
	}
	return t.points[level]
}

// Highest returns the index of the top operating point.
func (t *Table) Highest() int { return len(t.points) - 1 }

// LevelForFreq returns the lowest level whose frequency meets or exceeds
// f. Requests above the table maximum return the highest level.
func (t *Table) LevelForFreq(f float64) int {
	for i, p := range t.points {
		if p.FreqHz >= f {
			return i
		}
	}
	return len(t.points) - 1
}

// PIDConfig parameterises the power capper. Gains are discrete, per
// control epoch, and act on the normalised power error (watts of error
// divided by TDP), so one tuning works across budgets and epoch lengths.
type PIDConfig struct {
	Kp, Ki, Kd float64
	TDP        float64 // watts

	// Guard is the fraction of TDP reserved as safety margin; the
	// controller regulates toward TDP*(1-Guard). ICCD'14 keeps a small
	// guard band to absorb workload steps between control epochs.
	Guard float64
}

// DefaultPIDConfig returns a tuning that settles in a handful of control
// epochs without limit-cycling on a proportional plant.
func DefaultPIDConfig(tdpW float64) PIDConfig {
	return PIDConfig{Kp: 0.2, Ki: 0.3, Kd: 0.05, TDP: tdpW, Guard: 0.02}
}

// PIDCapper regulates chip power toward the TDP by moving a continuous
// "throttle" in [0,1]; 1 means all cores may use the top DVFS level, lower
// values lower the global level ceiling. This mirrors the ICCD'14 design
// where a PID loop drives fine-grained DVFS, including near-threshold
// operation, to honor the thermal design power under dynamic workloads.
//
// The controller uses the velocity (incremental) form,
//
//	du = Kp*(e - e1) + Ki*e + Kd*(e - 2*e1 + e2),
//
// which is anti-windup by construction when the output is clamped.
type PIDCapper struct {
	cfg      PIDConfig
	err1     float64 // e[k-1]
	err2     float64 // e[k-2]
	throttle float64
	primed   bool
}

// NewPIDCapper returns a capper starting fully open (throttle 1).
func NewPIDCapper(cfg PIDConfig) (*PIDCapper, error) {
	if cfg.TDP <= 0 {
		return nil, fmt.Errorf("dvfs: TDP must be positive, got %v", cfg.TDP)
	}
	if cfg.Guard < 0 || cfg.Guard >= 1 {
		return nil, fmt.Errorf("dvfs: Guard must be in [0,1), got %v", cfg.Guard)
	}
	return &PIDCapper{cfg: cfg, throttle: 1}, nil
}

// Throttle returns the current control output in [0,1].
func (c *PIDCapper) Throttle() float64 { return c.throttle }

// TDP returns the budget the capper regulates against.
func (c *PIDCapper) TDP() float64 { return c.cfg.TDP }

// Update advances the control loop with a new chip power measurement taken
// over one control epoch of dtS seconds and returns the new throttle.
// Gains are per-epoch, so dtS only guards against degenerate calls.
func (c *PIDCapper) Update(measuredW, dtS float64) float64 {
	if dtS <= 0 {
		return c.throttle
	}
	target := c.cfg.TDP * (1 - c.cfg.Guard)
	err := (target - measuredW) / c.cfg.TDP // normalised; positive = headroom
	if !c.primed {
		c.err1, c.err2 = err, err
		c.primed = true
	}
	du := c.cfg.Kp*(err-c.err1) + c.cfg.Ki*err + c.cfg.Kd*(err-2*c.err1+c.err2)
	c.err2, c.err1 = c.err1, err
	c.throttle = clamp01(c.throttle + du)
	return c.throttle
}

func clamp01(x float64) float64 { return math.Min(1, math.Max(0, x)) }

// CeilingLevel maps the throttle to the highest DVFS level cores may use.
// Throttle 1 exposes the full table; 0 pins everything at near-threshold.
func (c *PIDCapper) CeilingLevel(t *Table) int {
	lvl := int(math.Round(c.throttle * float64(t.Highest())))
	if lvl < 0 {
		lvl = 0
	}
	if lvl > t.Highest() {
		lvl = t.Highest()
	}
	return lvl
}

// GovernorPolicy selects how per-core levels are chosen under the ceiling.
type GovernorPolicy int

// Available governor policies.
const (
	// GovernorEco grants the lowest level that satisfies the demand —
	// energy-proportional operation, the paper family's default.
	GovernorEco GovernorPolicy = iota
	// GovernorRace grants the ceiling level regardless of demand
	// (race-to-idle): tasks finish sooner at higher power.
	GovernorRace
)

// String returns the policy name.
func (p GovernorPolicy) String() string {
	switch p {
	case GovernorEco:
		return "eco"
	case GovernorRace:
		return "race"
	default:
		return fmt.Sprintf("governor(%d)", int(p))
	}
}

// Governor picks per-core levels subject to the global ceiling.
type Governor struct {
	table  *Table
	policy GovernorPolicy
}

// NewGovernor returns an eco governor over the given table.
func NewGovernor(table *Table) *Governor { return &Governor{table: table} }

// SetPolicy switches the level-selection policy.
func (g *Governor) SetPolicy(p GovernorPolicy) { g.policy = p }

// Policy returns the active policy.
func (g *Governor) Policy() GovernorPolicy { return g.policy }

// LevelFor picks the operating level for a core that needs demandHz to
// meet its workload, under the global ceiling level. The eco policy
// prefers the lowest level that satisfies the demand; the race policy
// grants the ceiling outright. Neither exceeds the ceiling even when that
// slows the task down.
func (g *Governor) LevelFor(demandHz float64, ceiling int) int {
	if ceiling < 0 {
		ceiling = 0
	}
	if g.policy == GovernorRace {
		return ceiling
	}
	lvl := g.table.LevelForFreq(demandHz)
	if lvl > ceiling {
		lvl = ceiling
	}
	return lvl
}

// Slowdown returns the execution-time stretch factor a task experiences at
// the given level relative to its demanded frequency: >= 1, where 1 means
// the granted frequency covers the demand.
func (g *Governor) Slowdown(demandHz float64, level int) float64 {
	if demandHz <= 0 {
		return 1
	}
	granted := g.table.Point(level).FreqHz
	if granted <= 0 {
		return math.Inf(1)
	}
	if granted >= demandHz {
		return 1
	}
	return demandHz / granted
}
