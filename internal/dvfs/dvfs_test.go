package dvfs

import (
	"math"
	"testing"
	"testing/quick"

	"potsim/internal/tech"
)

func testTable() *Table { return NewTable(tech.Default(), 8) }

func TestTableBasics(t *testing.T) {
	tb := testTable()
	if tb.Levels() != 8 {
		t.Fatalf("Levels = %d, want 8", tb.Levels())
	}
	if tb.Highest() != 7 {
		t.Fatalf("Highest = %d, want 7", tb.Highest())
	}
	for i := 1; i < tb.Levels(); i++ {
		if tb.Point(i).FreqHz <= tb.Point(i-1).FreqHz {
			t.Errorf("table not ascending at level %d", i)
		}
	}
}

func TestTablePointClamping(t *testing.T) {
	tb := testTable()
	if tb.Point(-5) != tb.Point(0) {
		t.Error("negative level should clamp to 0")
	}
	if tb.Point(99) != tb.Point(tb.Highest()) {
		t.Error("huge level should clamp to highest")
	}
}

func TestLevelForFreq(t *testing.T) {
	tb := testTable()
	node := tech.Default()
	if got := tb.LevelForFreq(0); got != 0 {
		t.Errorf("LevelForFreq(0) = %d, want 0", got)
	}
	if got := tb.LevelForFreq(node.FMaxHz); got != tb.Highest() {
		t.Errorf("LevelForFreq(FMax) = %d, want highest", got)
	}
	if got := tb.LevelForFreq(10 * node.FMaxHz); got != tb.Highest() {
		t.Errorf("LevelForFreq above max = %d, want highest", got)
	}
	// The selected level's frequency covers the demand (unless above max).
	for _, frac := range []float64{0.1, 0.3, 0.6, 0.9} {
		f := frac * node.FMaxHz
		lvl := tb.LevelForFreq(f)
		if tb.Point(lvl).FreqHz < f {
			t.Errorf("level %d freq %v below demand %v", lvl, tb.Point(lvl).FreqHz, f)
		}
		if lvl > 0 && tb.Point(lvl-1).FreqHz >= f {
			t.Errorf("level %d is not minimal for demand %v", lvl, f)
		}
	}
}

func TestPIDConvergesToBudget(t *testing.T) {
	// Plant: chip power proportional to throttle (peak 40 W), TDP 20 W.
	cap0, err := NewPIDCapper(DefaultPIDConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	const peak = 40.0
	power := peak
	for i := 0; i < 400; i++ {
		th := cap0.Update(power, 0.001)
		power = th * peak
	}
	if power > 20.0*1.005 {
		t.Errorf("converged power %v exceeds TDP 20", power)
	}
	if power < 17.5 {
		t.Errorf("converged power %v leaves too much headroom (throttle stuck low)", power)
	}
}

func TestPIDOpensWhenLoadDrops(t *testing.T) {
	c, err := NewPIDCapper(DefaultPIDConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	// Heavy load phase drives the throttle down.
	power := 40.0
	for i := 0; i < 200; i++ {
		power = c.Update(power, 0.001) * 40
	}
	low := c.Throttle()
	// Load vanishes: plant now draws 5 W regardless of throttle.
	for i := 0; i < 400; i++ {
		c.Update(5, 0.001)
	}
	if c.Throttle() <= low {
		t.Errorf("throttle did not recover after load drop: %v -> %v", low, c.Throttle())
	}
	if c.Throttle() < 0.99 {
		t.Errorf("throttle should fully reopen with huge headroom, got %v", c.Throttle())
	}
}

func TestPIDThrottleStaysInRange(t *testing.T) {
	c, err := NewPIDCapper(DefaultPIDConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p := 0.0
		if i%2 == 0 {
			p = 100 // violent alternation
		}
		th := c.Update(p, 0.001)
		if th < 0 || th > 1 || math.IsNaN(th) {
			t.Fatalf("throttle escaped [0,1]: %v", th)
		}
	}
}

func TestPIDZeroDtIsNoop(t *testing.T) {
	c, _ := NewPIDCapper(DefaultPIDConfig(10))
	before := c.Throttle()
	if got := c.Update(100, 0); got != before {
		t.Errorf("Update with dt=0 changed throttle: %v -> %v", before, got)
	}
}

func TestPIDConfigValidation(t *testing.T) {
	if _, err := NewPIDCapper(PIDConfig{TDP: 0}); err == nil {
		t.Error("TDP=0 accepted")
	}
	if _, err := NewPIDCapper(PIDConfig{TDP: 10, Guard: 1}); err == nil {
		t.Error("Guard=1 accepted")
	}
}

func TestCeilingLevelMapping(t *testing.T) {
	tb := testTable()
	c, _ := NewPIDCapper(DefaultPIDConfig(10))
	if got := c.CeilingLevel(tb); got != tb.Highest() {
		t.Errorf("fresh capper ceiling = %d, want highest", got)
	}
	// Drive throttle to zero.
	for i := 0; i < 2000; i++ {
		c.Update(1000, 0.001)
	}
	if got := c.CeilingLevel(tb); got != 0 {
		t.Errorf("saturated capper ceiling = %d, want 0", got)
	}
}

func TestGovernorLevelFor(t *testing.T) {
	tb := testTable()
	g := NewGovernor(tb)
	node := tech.Default()
	top := tb.Highest()

	if got := g.LevelFor(node.FMaxHz, top); got != top {
		t.Errorf("full demand under open ceiling = level %d, want %d", got, top)
	}
	if got := g.LevelFor(node.FMaxHz, 3); got != 3 {
		t.Errorf("ceiling must bind: got %d, want 3", got)
	}
	if got := g.LevelFor(0.1*node.FMaxHz, top); got >= top {
		t.Error("light demand should map to a low level")
	}
	if got := g.LevelFor(node.FMaxHz, -2); got != 0 {
		t.Errorf("negative ceiling clamps to 0, got %d", got)
	}
}

func TestGovernorSlowdown(t *testing.T) {
	tb := testTable()
	g := NewGovernor(tb)
	node := tech.Default()

	if s := g.Slowdown(node.FMaxHz, tb.Highest()); s != 1 {
		t.Errorf("no slowdown expected at top level, got %v", s)
	}
	s := g.Slowdown(node.FMaxHz, 0)
	want := node.FMaxHz / tb.Point(0).FreqHz
	if math.Abs(s-want) > 1e-9 {
		t.Errorf("Slowdown = %v, want %v", s, want)
	}
	if g.Slowdown(0, 0) != 1 {
		t.Error("zero demand should have no slowdown")
	}
}

// Property: the governor never grants a level above the ceiling, and when
// the un-capped minimal level is within the ceiling the demand is covered.
func TestGovernorProperty(t *testing.T) {
	tb := testTable()
	g := NewGovernor(tb)
	node := tech.Default()
	prop := func(demandRaw uint8, ceilRaw uint8) bool {
		demand := float64(demandRaw) / 255 * node.FMaxHz
		ceiling := int(ceilRaw) % tb.Levels()
		lvl := g.LevelFor(demand, ceiling)
		if lvl > ceiling || lvl < 0 {
			return false
		}
		if tb.LevelForFreq(demand) <= ceiling && tb.Point(lvl).FreqHz < demand {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGovernorRacePolicy(t *testing.T) {
	tb := testTable()
	g := NewGovernor(tb)
	if g.Policy() != GovernorEco {
		t.Error("default policy should be eco")
	}
	g.SetPolicy(GovernorRace)
	if got := g.LevelFor(0.1*tech.Default().FMaxHz, 5); got != 5 {
		t.Errorf("race policy granted level %d, want ceiling 5", got)
	}
	if got := g.LevelFor(1e9, -3); got != 0 {
		t.Errorf("negative ceiling clamps to 0, got %d", got)
	}
	if GovernorEco.String() != "eco" || GovernorRace.String() != "race" {
		t.Error("policy names wrong")
	}
}
