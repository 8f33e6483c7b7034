// Package mem models the off-chip memory path of the manycore: memory
// controllers placed on the mesh border, per-controller service capacity,
// and an M/M/1-style contention stretch applied to the memory-stall
// fraction of each task. The motivation is the same group's DFTS'15
// observation that naive manycore execution hits "severe bottlenecks in
// off-chip shared memory access at memory controllers".
package mem

import (
	"fmt"
	"math"

	"potsim/internal/noc"
)

// Config places the controllers and sizes them.
type Config struct {
	// Controllers are the border positions of the memory controllers;
	// every core uses its nearest controller (ties resolved toward the
	// lower index).
	Controllers []noc.Coord
	// CapacityHz is the service capacity of one controller in memory
	// cycles per second: the aggregate memory-stall cycle rate it can
	// absorb before queueing sets in.
	CapacityHz float64
	// MaxRho caps the utilisation used in the stretch formula so a
	// transiently oversubscribed controller yields a large, finite
	// slowdown instead of a singularity.
	MaxRho float64
}

// DefaultConfig spreads n controllers over the mesh border corners
// (1, 2 or 4) with a capacity that leaves mild contention at typical
// loads.
func DefaultConfig(width, height, n int) Config {
	corners := []noc.Coord{
		{X: 0, Y: 0},
		{X: width - 1, Y: height - 1},
		{X: width - 1, Y: 0},
		{X: 0, Y: height - 1},
	}
	if n < 1 {
		n = 1
	}
	if n > len(corners) {
		n = len(corners)
	}
	return Config{
		Controllers: corners[:n],
		CapacityHz:  8e9,
		MaxRho:      0.95,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Controllers) == 0 {
		return fmt.Errorf("mem: need at least one controller")
	}
	if c.CapacityHz <= 0 {
		return fmt.Errorf("mem: CapacityHz must be positive")
	}
	if c.MaxRho <= 0 || c.MaxRho >= 1 {
		return fmt.Errorf("mem: MaxRho must be in (0,1)")
	}
	return nil
}

// Subsystem tracks per-controller demand epoch by epoch. Demand
// accumulated during an epoch becomes the utilisation that stretches
// memory stalls in the next epoch (one-epoch feedback lag, like the power
// capper).
type Subsystem struct {
	cfg     Config    //potlint:nosnap configuration, rebuilt by the caller
	nearest []int     //potlint:nosnap controller map, derived from Config geometry
	demand  []float64 // accumulating this epoch, memory cycles/s
	rho     []float64 // utilisation from the previous epoch
	peakRho float64
}

// New builds the subsystem for a width x height mesh.
func New(width, height int, cfg Config) (*Subsystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("mem: invalid mesh %dx%d", width, height)
	}
	s := &Subsystem{
		cfg:     cfg,
		nearest: make([]int, width*height),
		demand:  make([]float64, len(cfg.Controllers)),
		rho:     make([]float64, len(cfg.Controllers)),
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			core := noc.Coord{X: x, Y: y}
			best, bestD := 0, math.MaxInt32
			for i, ctrl := range cfg.Controllers {
				if d := core.Hops(ctrl); d < bestD {
					best, bestD = i, d
				}
			}
			s.nearest[y*width+x] = best
		}
	}
	return s, nil
}

// Controllers returns the controller count.
func (s *Subsystem) Controllers() int { return len(s.cfg.Controllers) }

// AddDemand accumulates memory-cycle demand (cycles/s) from a core onto
// its controller for the current epoch.
func (s *Subsystem) AddDemand(coreID int, cyclesPerSec float64) {
	if cyclesPerSec > 0 {
		s.demand[s.nearest[coreID]] += cyclesPerSec
	}
}

// EndEpoch converts this epoch's accumulated demand into next epoch's
// utilisation and resets the accumulators.
func (s *Subsystem) EndEpoch() {
	for i, d := range s.demand {
		rho := d / s.cfg.CapacityHz
		if rho > s.cfg.MaxRho {
			rho = s.cfg.MaxRho
		}
		s.rho[i] = rho
		if rho > s.peakRho {
			s.peakRho = rho
		}
		s.demand[i] = 0
	}
}

// PeakRho returns the highest controller utilisation seen in the run.
func (s *Subsystem) PeakRho() float64 { return s.peakRho }

// MeanRho returns the average controller utilisation right now.
func (s *Subsystem) MeanRho() float64 {
	sum := 0.0
	for _, r := range s.rho {
		sum += r
	}
	return sum / float64(len(s.rho))
}

// Stretch returns the M/M/1 sojourn-time stretch 1/(1-rho) of the
// controller serving core id, based on the previous epoch's utilisation.
func (s *Subsystem) Stretch(coreID int) float64 {
	return 1 / (1 - s.rho[s.nearest[coreID]])
}

// SlowdownFactor converts a task's memory intensity (the fraction of its
// cycles that are memory stalls at an uncontended controller, in [0,1))
// into the execution-rate multiplier under the current contention:
//
//	rate = 1 / (1 - mi + mi*stretch)
//
// 1 when uncontended; approaching mi-limited slowdown as the controller
// saturates.
func (s *Subsystem) SlowdownFactor(coreID int, memIntensity float64) float64 {
	if memIntensity <= 0 {
		return 1
	}
	if memIntensity >= 1 {
		memIntensity = 0.99
	}
	stretch := s.Stretch(coreID)
	return 1 / (1 - memIntensity + memIntensity*stretch)
}
