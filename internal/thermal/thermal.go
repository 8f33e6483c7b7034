// Package thermal implements a lumped RC thermal model of the manycore
// die, in the spirit of HotSpot's block model: one thermal node per core,
// a vertical resistance to ambient through the heat spreader, and lateral
// resistances between mesh neighbours. Temperatures feed back into the
// leakage model and the aging model.
package thermal

import (
	"fmt"
	"math"

	"potsim/internal/sim"
)

// Config holds the RC parameters of the die model.
type Config struct {
	Width, Height int // mesh dimensions (cores)

	AmbientK float64 // ambient/package temperature, kelvin

	// RVertical is the thermal resistance from one core node to ambient,
	// kelvin per watt. RLateral couples adjacent cores.
	RVertical float64
	RLateral  float64

	// Capacitance is the thermal capacitance of one core node, J/K.
	Capacitance float64

	// MaxStepS bounds the integration step in seconds for stability;
	// Advance subdivides longer intervals.
	MaxStepS float64
}

// DefaultConfig returns parameters tuned for millimetre-scale cores:
// a hot core dissipating ~0.7 W settles ~15 K above ambient with a time
// constant around 100 ms.
func DefaultConfig(width, height int) Config {
	return Config{
		Width: width, Height: height,
		AmbientK:    318, // 45 C
		RVertical:   25,
		RLateral:    8,
		Capacitance: 0.004,
		MaxStepS:    0.002,
	}
}

// Grid integrates core temperatures over simulated time.
type Grid struct {
	cfg     Config //potlint:nosnap configuration, rebuilt by the caller
	tempK   []float64
	scratch []float64 //potlint:nosnap stencil double-buffer, rewritten before every use
	lastAt  sim.Time
	peakK   float64
}

// NewGrid creates a grid with all cores at ambient temperature.
func NewGrid(cfg Config) (*Grid, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("thermal: invalid grid %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.RVertical <= 0 || cfg.Capacitance <= 0 {
		return nil, fmt.Errorf("thermal: RVertical and Capacitance must be positive")
	}
	if cfg.RLateral <= 0 {
		return nil, fmt.Errorf("thermal: RLateral must be positive")
	}
	if cfg.MaxStepS <= 0 {
		cfg.MaxStepS = 0.002
	}
	// Forward-Euler stability: dt < C / (1/Rv + 4/Rl). Clamp the step.
	gmax := 1/cfg.RVertical + 4/cfg.RLateral
	limit := 0.5 * cfg.Capacitance / gmax
	if cfg.MaxStepS > limit {
		cfg.MaxStepS = limit
	}
	n := cfg.Width * cfg.Height
	g := &Grid{cfg: cfg, tempK: make([]float64, n), scratch: make([]float64, n), peakK: cfg.AmbientK}
	for i := range g.tempK {
		g.tempK[i] = cfg.AmbientK
	}
	return g, nil
}

// Cores returns the number of thermal nodes.
func (g *Grid) Cores() int { return len(g.tempK) }

// Temperature returns the current temperature of core id in kelvin.
func (g *Grid) Temperature(id int) float64 { return g.tempK[id] }

// MaxTemperature returns the hottest current core temperature.
func (g *Grid) MaxTemperature() float64 {
	max := g.tempK[0]
	for _, t := range g.tempK[1:] {
		if t > max {
			max = t
		}
	}
	return max
}

// PeakEver returns the hottest temperature seen at any point of the run.
func (g *Grid) PeakEver() float64 { return g.peakK }

// MeanTemperature returns the average core temperature.
func (g *Grid) MeanTemperature() float64 {
	sum := 0.0
	for _, t := range g.tempK {
		sum += t
	}
	return sum / float64(len(g.tempK))
}

// Advance integrates the grid to time now given per-core power draws in
// watts (len must equal Cores()), held constant over the interval.
//
//potlint:allocfree
func (g *Grid) Advance(now sim.Time, powerW []float64) error {
	if len(powerW) != len(g.tempK) {
		return fmt.Errorf("thermal: power vector has %d entries, want %d", len(powerW), len(g.tempK))
	}
	total := (now - g.lastAt).Seconds()
	if total < 0 {
		return fmt.Errorf("thermal: time went backwards %v -> %v", g.lastAt, now)
	}
	g.lastAt = now
	if total <= 0 {
		// Zero-length interval: no integration, but keep the historical
		// behaviour of folding the current field into the running peak.
		for _, t := range g.tempK {
			if t > g.peakK {
				g.peakK = t
			}
		}
		return nil
	}
	// Each substep reports the hottest temperature it wrote; only the
	// final substep's value is the post-interval field, matching the
	// separate scan this loop used to run after integration.
	var peak float64
	for total > 0 {
		dt := math.Min(total, g.cfg.MaxStepS)
		peak = g.step(dt, powerW)
		total -= dt
	}
	if peak > g.peakK {
		g.peakK = peak
	}
	return nil
}

// step performs one forward-Euler update of length dt seconds and returns
// the hottest temperature written. The new field is built in the scratch
// buffer and the two buffers are swapped — no copy-back pass. Neighbour
// heat-flow terms accumulate in the fixed order left, right, up, down
// (the original branch order), and the update expression is kept verbatim
// as t + dt*flow/C, so the floating-point result is bit-identical to the
// pre-optimization kernel.
//
//potlint:allocfree
func (g *Grid) step(dt float64, powerW []float64) float64 {
	w, h := g.cfg.Width, g.cfg.Height
	gv := 1 / g.cfg.RVertical
	gl := 1 / g.cfg.RLateral
	amb := g.cfg.AmbientK
	capJ := g.cfg.Capacitance
	tempK, scratch := g.tempK, g.scratch
	peak := math.Inf(-1)

	// cell handles a boundary node, where the neighbour terms depend on
	// position. Interior nodes take the branch-free loop below instead.
	cell := func(i, x, y int) {
		t := tempK[i]
		flow := powerW[i] - (t-amb)*gv
		if x > 0 {
			flow += (tempK[i-1] - t) * gl
		}
		if x < w-1 {
			flow += (tempK[i+1] - t) * gl
		}
		if y > 0 {
			flow += (tempK[i-w] - t) * gl
		}
		if y < h-1 {
			flow += (tempK[i+w] - t) * gl
		}
		nt := t + dt*flow/capJ
		scratch[i] = nt
		if nt > peak {
			peak = nt
		}
	}

	for y := 0; y < h; y++ {
		row := y * w
		if w < 3 || h < 3 || y == 0 || y == h-1 {
			// Boundary rows (and every row of degenerate meshes) take
			// the branchy path.
			for x := 0; x < w; x++ {
				cell(row+x, x, y)
			}
			continue
		}
		// Interior rows — the bulk of the cells on production meshes —
		// have all four neighbours by construction for the middle
		// columns and run without bounds branches there.
		cell(row, 0, y)
		for i := row + 1; i < row+w-1; i++ {
			t := tempK[i]
			flow := powerW[i] - (t-amb)*gv
			flow += (tempK[i-1] - t) * gl
			flow += (tempK[i+1] - t) * gl
			flow += (tempK[i-w] - t) * gl
			flow += (tempK[i+w] - t) * gl
			nt := t + dt*flow/capJ
			scratch[i] = nt
			if nt > peak {
				peak = nt
			}
		}
		cell(row+w-1, w-1, y)
	}
	g.tempK, g.scratch = scratch, tempK
	return peak
}

// CheckSane reports the first core whose temperature is non-finite or
// outside [minK, maxK] — the physical-plausibility invariant the runtime
// guard evaluates every epoch. A healthy RC integration can never leave
// these bounds; an escape means the forward-Euler step went unstable or
// a NaN power draw was fed in.
func (g *Grid) CheckSane(minK, maxK float64) error {
	for id, t := range g.tempK {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < minK || t > maxK {
			return fmt.Errorf("thermal: core %d at %v K outside [%v, %v] K", id, t, minK, maxK)
		}
	}
	return nil
}

// Poison overwrites core id's temperature with an arbitrary value,
// bypassing the integrator. It exists solely so guard tests can seed a
// physically impossible state; production code never calls it.
func (g *Grid) Poison(id int, tempK float64) { g.tempK[id] = tempK }

// SteadyStateUniform returns the analytic steady-state temperature when
// every core dissipates the same power p: lateral flows cancel, so
// T = ambient + p * RVertical. Used by tests as an oracle.
func (g *Grid) SteadyStateUniform(p float64) float64 {
	return g.cfg.AmbientK + p*g.cfg.RVertical
}
