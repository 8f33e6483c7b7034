package thermal

import (
	"math"
	"testing"

	"potsim/internal/sim"
)

func mustGrid(t *testing.T, w, h int) *Grid {
	t.Helper()
	g, err := NewGrid(DefaultConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(Config{Width: 0, Height: 4}); err == nil {
		t.Error("zero width accepted")
	}
	cfg := DefaultConfig(2, 2)
	cfg.RVertical = 0
	if _, err := NewGrid(cfg); err == nil {
		t.Error("zero RVertical accepted")
	}
	cfg = DefaultConfig(2, 2)
	cfg.RLateral = -1
	if _, err := NewGrid(cfg); err == nil {
		t.Error("negative RLateral accepted")
	}
}

func TestInitialTemperatureIsAmbient(t *testing.T) {
	g := mustGrid(t, 4, 4)
	for i := 0; i < g.Cores(); i++ {
		if g.Temperature(i) != DefaultConfig(4, 4).AmbientK {
			t.Fatalf("core %d starts at %v, want ambient", i, g.Temperature(i))
		}
	}
}

func TestUniformPowerReachesSteadyState(t *testing.T) {
	g := mustGrid(t, 4, 4)
	p := make([]float64, g.Cores())
	for i := range p {
		p[i] = 0.7
	}
	// 10 seconds is many thermal time constants.
	if err := g.Advance(10*sim.Second, p); err != nil {
		t.Fatal(err)
	}
	want := g.SteadyStateUniform(0.7)
	for i := 0; i < g.Cores(); i++ {
		if math.Abs(g.Temperature(i)-want) > 0.1 {
			t.Errorf("core %d steady temp = %v, want %v", i, g.Temperature(i), want)
		}
	}
}

func TestHotspotSpreadsToNeighbours(t *testing.T) {
	g := mustGrid(t, 5, 5)
	p := make([]float64, g.Cores())
	center := 2*5 + 2
	p[center] = 1.0
	if err := g.Advance(5*sim.Second, p); err != nil {
		t.Fatal(err)
	}
	ambient := DefaultConfig(5, 5).AmbientK
	tc := g.Temperature(center)
	tn := g.Temperature(center + 1) // east neighbour
	tf := g.Temperature(0)          // far corner
	if !(tc > tn && tn > tf && tf >= ambient-1e-9) {
		t.Errorf("expected monotone spread: center=%v neighbour=%v corner=%v ambient=%v",
			tc, tn, tf, ambient)
	}
	if tn-ambient < 0.05 {
		t.Errorf("neighbour barely heated (%v), lateral coupling looks broken", tn-ambient)
	}
}

func TestCoolingAfterPowerOff(t *testing.T) {
	g := mustGrid(t, 3, 3)
	p := make([]float64, g.Cores())
	for i := range p {
		p[i] = 1.0
	}
	if err := g.Advance(5*sim.Second, p); err != nil {
		t.Fatal(err)
	}
	hot := g.MaxTemperature()
	for i := range p {
		p[i] = 0
	}
	if err := g.Advance(15*sim.Second, p); err != nil {
		t.Fatal(err)
	}
	ambient := DefaultConfig(3, 3).AmbientK
	if g.MaxTemperature() >= hot {
		t.Error("grid did not cool after power removed")
	}
	if math.Abs(g.MaxTemperature()-ambient) > 0.1 {
		t.Errorf("grid did not return to ambient: %v", g.MaxTemperature())
	}
	if g.PeakEver() < hot-1e-9 {
		t.Errorf("PeakEver = %v lost the hot excursion %v", g.PeakEver(), hot)
	}
}

func TestAdvanceRejectsWrongVectorLength(t *testing.T) {
	g := mustGrid(t, 3, 3)
	if err := g.Advance(sim.Second, make([]float64, 4)); err == nil {
		t.Error("wrong power vector length accepted")
	}
}

func TestAdvanceRejectsBackwardsTime(t *testing.T) {
	g := mustGrid(t, 2, 2)
	p := make([]float64, 4)
	if err := g.Advance(sim.Second, p); err != nil {
		t.Fatal(err)
	}
	if err := g.Advance(sim.Millisecond, p); err == nil {
		t.Error("backwards time accepted")
	}
}

func TestStabilityUnderLargeSteps(t *testing.T) {
	// Even if asked to advance a whole second at once, internal
	// subdivision must keep the integration stable (no oscillation,
	// no NaN, bounded by the steady state).
	g := mustGrid(t, 4, 4)
	p := make([]float64, g.Cores())
	for i := range p {
		p[i] = 2.0
	}
	for step := 1; step <= 5; step++ {
		if err := g.Advance(sim.Time(step)*sim.Second, p); err != nil {
			t.Fatal(err)
		}
	}
	limit := g.SteadyStateUniform(2.0)
	for i := 0; i < g.Cores(); i++ {
		tt := g.Temperature(i)
		if math.IsNaN(tt) || tt > limit+0.5 || tt < DefaultConfig(4, 4).AmbientK-0.5 {
			t.Fatalf("core %d temperature %v escaped [ambient, steady] bounds", i, tt)
		}
	}
}

func TestMeanAndMaxTemperature(t *testing.T) {
	g := mustGrid(t, 2, 1)
	p := []float64{1.0, 0}
	if err := g.Advance(10*sim.Second, p); err != nil {
		t.Fatal(err)
	}
	if g.MaxTemperature() <= g.MeanTemperature() {
		t.Errorf("max %v should exceed mean %v with asymmetric power",
			g.MaxTemperature(), g.MeanTemperature())
	}
}

func TestCheckSane(t *testing.T) {
	g, err := NewGrid(DefaultConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckSane(313, 1000); err != nil {
		t.Fatalf("fresh grid failed sanity: %v", err)
	}
	for name, v := range map[string]float64{
		"nan":     math.NaN(),
		"inf":     math.Inf(1),
		"melted":  1500,
		"subzero": 100,
	} {
		g.Poison(5, v)
		if err := g.CheckSane(313, 1000); err == nil {
			t.Errorf("%s temperature passed sanity", name)
		}
		g.Poison(5, DefaultConfig(4, 4).AmbientK)
	}
	if err := g.CheckSane(313, 1000); err != nil {
		t.Fatalf("restored grid failed sanity: %v", err)
	}
}

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

// SteadyStateUniform is the tests' analytic oracle: the steady-state
// temperature when every core dissipates the same power p. Lateral flows
// cancel, so T = ambient + p * RVertical.
func (g *Grid) SteadyStateUniform(p float64) float64 {
	return g.cfg.AmbientK + p*g.cfg.RVertical
}
