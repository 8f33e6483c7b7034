package mem

import (
	"math"
	"testing"

	"potsim/internal/noc"
)

func TestDefaultConfigCorners(t *testing.T) {
	cfg := DefaultConfig(8, 8, 4)
	if len(cfg.Controllers) != 4 {
		t.Fatalf("got %d controllers", len(cfg.Controllers))
	}
	cfg = DefaultConfig(8, 8, 1)
	if len(cfg.Controllers) != 1 || cfg.Controllers[0] != (noc.Coord{X: 0, Y: 0}) {
		t.Errorf("single controller placement wrong: %v", cfg.Controllers)
	}
	if len(DefaultConfig(8, 8, 99).Controllers) != 4 {
		t.Error("controller count should clamp to 4")
	}
	if len(DefaultConfig(8, 8, 0).Controllers) != 1 {
		t.Error("controller count should clamp to 1")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(4, 4, 2)
	bad.Controllers = nil
	if bad.Validate() == nil {
		t.Error("no controllers accepted")
	}
	bad = DefaultConfig(4, 4, 2)
	bad.CapacityHz = 0
	if bad.Validate() == nil {
		t.Error("zero capacity accepted")
	}
	bad = DefaultConfig(4, 4, 2)
	bad.MaxRho = 1
	if bad.Validate() == nil {
		t.Error("MaxRho=1 accepted")
	}
}

func TestNearestControllerAssignment(t *testing.T) {
	s, err := New(4, 4, DefaultConfig(4, 4, 2)) // (0,0) and (3,3)
	if err != nil {
		t.Fatal(err)
	}
	if s.nearest[0] != 0 { // core (0,0)
		t.Error("corner core not assigned to its own controller")
	}
	if s.nearest[15] != 1 { // core (3,3)
		t.Error("far corner not assigned to controller 1")
	}
}

func TestContentionStretch(t *testing.T) {
	s, err := New(4, 4, Config{
		Controllers: []noc.Coord{{X: 0, Y: 0}},
		CapacityHz:  1e9, MaxRho: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No demand: no stretch.
	s.EndEpoch()
	if got := s.Stretch(0); got != 1 {
		t.Errorf("uncontended stretch = %v, want 1", got)
	}
	if s.SlowdownFactor(0, 0.3) != 1 {
		t.Error("uncontended slowdown should be 1")
	}
	// Half-utilised controller: stretch 2, rate multiplier for a 30%
	// memory-bound task = 1/(0.7 + 0.3*2) = 1/1.3.
	s.AddDemand(0, 5e8)
	s.EndEpoch()
	if got := s.Stretch(0); math.Abs(got-2) > 1e-9 {
		t.Errorf("stretch at rho=0.5 = %v, want 2", got)
	}
	if got := s.SlowdownFactor(0, 0.3); math.Abs(got-1/1.3) > 1e-9 {
		t.Errorf("slowdown = %v, want %v", got, 1/1.3)
	}
	// Oversubscription clamps at MaxRho.
	s.AddDemand(0, 1e12)
	s.EndEpoch()
	if got := s.rho[0]; got != 0.95 {
		t.Errorf("rho = %v, want clamp at 0.95", got)
	}
	if s.PeakRho() != 0.95 {
		t.Errorf("peak rho = %v", s.PeakRho())
	}
	// Compute-only tasks never slow down.
	if s.SlowdownFactor(0, 0) != 1 {
		t.Error("zero-intensity task slowed down")
	}
	// Demand resets every epoch.
	s.EndEpoch()
	if got := s.rho[0]; got != 0 {
		t.Errorf("rho after quiet epoch = %v, want 0", got)
	}
}

func TestMeanRho(t *testing.T) {
	s, err := New(4, 4, Config{
		Controllers: []noc.Coord{{X: 0, Y: 0}, {X: 3, Y: 3}},
		CapacityHz:  1e9, MaxRho: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AddDemand(0, 4e8)  // controller 0
	s.AddDemand(15, 8e8) // controller 1
	s.EndEpoch()
	if got := s.MeanRho(); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("mean rho = %v, want 0.6", got)
	}
}

func TestSlowdownMonotoneInIntensity(t *testing.T) {
	s, err := New(2, 2, Config{
		Controllers: []noc.Coord{{X: 0, Y: 0}},
		CapacityHz:  1e9, MaxRho: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AddDemand(0, 7e8)
	s.EndEpoch()
	prev := 2.0
	for mi := 0.0; mi < 1.0; mi += 0.1 {
		f := s.SlowdownFactor(0, mi)
		if f > prev+1e-12 {
			t.Fatalf("slowdown factor not decreasing in intensity at %v", mi)
		}
		if f <= 0 || f > 1 {
			t.Fatalf("slowdown factor %v outside (0,1]", f)
		}
		prev = f
	}
	if s.SlowdownFactor(0, 5) <= 0 { // intensity clamps below 1
		t.Error("huge intensity mishandled")
	}
}
