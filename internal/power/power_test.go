package power

import (
	"math"
	"testing"
	"testing/quick"

	"potsim/internal/dvfs"
	"potsim/internal/sim"
	"potsim/internal/tech"
)

func testModel() Model { return NewModel(tech.Default()) }

func TestCorePowerGated(t *testing.T) {
	m := testModel()
	if got := m.Core(0, 1e9, 1, 318); got.Total() != 0 {
		t.Errorf("power-gated core consumes %v W, want 0", got.Total())
	}
}

func TestIdlePowerIsLeakageOnly(t *testing.T) {
	m := testModel()
	idle := m.IdlePower(m.Node.VNom, 318)
	if idle.Dynamic != 0 {
		t.Errorf("idle dynamic power = %v, want 0", idle.Dynamic)
	}
	if idle.Leakage <= 0 {
		t.Errorf("idle leakage = %v, want positive", idle.Leakage)
	}
}

func TestCorePowerComposition(t *testing.T) {
	m := testModel()
	n := m.Node
	b := m.Core(n.VNom, n.FMaxHz, 1, n.T0)
	wantDyn := n.DynamicPower(n.VNom, n.FMaxHz, 1)
	wantLeak := n.LeakagePower(n.VNom, n.T0)
	if math.Abs(b.Dynamic-wantDyn) > 1e-12 || math.Abs(b.Leakage-wantLeak) > 1e-12 {
		t.Errorf("Core() = %+v, want dyn=%v leak=%v", b, wantDyn, wantLeak)
	}
	if math.Abs(b.Total()-(wantDyn+wantLeak)) > 1e-12 {
		t.Errorf("Total() mismatch")
	}
}

func TestBreakdownAdd(t *testing.T) {
	a := Breakdown{Dynamic: 1, Leakage: 2}
	b := Breakdown{Dynamic: 3, Leakage: 4}
	got := a.Add(b)
	if got.Dynamic != 4 || got.Leakage != 6 {
		t.Errorf("Add = %+v", got)
	}
}

func mustAccountant(t *testing.T, cores int, every sim.Time) *Accountant {
	t.Helper()
	a, err := NewAccountant(cores, every)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustBudget(t *testing.T, tdp float64) *Budget {
	t.Helper()
	b, err := NewBudget(tdp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAccountantEnergyIntegration(t *testing.T) {
	a := mustAccountant(t, 2, 0)
	a.SetWorkload(0, Breakdown{Dynamic: 1.0})
	a.SetWorkload(1, Breakdown{Leakage: 0.5})
	a.Advance(sim.Second, 10) // 1.5 W for 1 s
	if math.Abs(a.EnergyJ()-1.5) > 1e-9 {
		t.Errorf("EnergyJ = %v, want 1.5", a.EnergyJ())
	}
	a.SetTest(0, Breakdown{Dynamic: 0.5})
	a.Advance(2*sim.Second, 10) // 2.0 W for another 1 s
	if math.Abs(a.EnergyJ()-3.5) > 1e-9 {
		t.Errorf("EnergyJ = %v, want 3.5", a.EnergyJ())
	}
	if math.Abs(a.TestEnergyJ()-0.5) > 1e-9 {
		t.Errorf("TestEnergyJ = %v, want 0.5", a.TestEnergyJ())
	}
	if share := a.TestEnergyShare(); math.Abs(share-0.5/3.5) > 1e-9 {
		t.Errorf("TestEnergyShare = %v", share)
	}
	if mp := a.MeanPower(); math.Abs(mp-1.75) > 1e-9 {
		t.Errorf("MeanPower = %v, want 1.75", mp)
	}
}

func TestAccountantPeak(t *testing.T) {
	a := mustAccountant(t, 1, 0)
	a.SetWorkload(0, Breakdown{Dynamic: 1})
	a.Advance(sim.Millisecond, 10)
	a.SetWorkload(0, Breakdown{Dynamic: 5})
	a.Advance(2*sim.Millisecond, 10)
	a.SetWorkload(0, Breakdown{Dynamic: 2})
	a.Advance(3*sim.Millisecond, 10)
	peak, at := a.Peak()
	if peak != 5 || at != 2*sim.Millisecond {
		t.Errorf("Peak = (%v, %v), want (5, 2ms)", peak, at)
	}
}

func TestAccountantTraceDecimation(t *testing.T) {
	a := mustAccountant(t, 1, sim.Millisecond)
	a.SetWorkload(0, Breakdown{Dynamic: 1})
	for i := 1; i <= 100; i++ {
		a.Advance(sim.Time(i)*100*sim.Microsecond, 10) // 10 ms total
	}
	tr := a.Trace()
	if len(tr) < 9 || len(tr) > 11 {
		t.Errorf("trace has %d points over 10ms at 1ms decimation", len(tr))
	}
	for _, p := range tr {
		if p.Budget != 10 {
			t.Errorf("trace budget = %v, want 10", p.Budget)
		}
		if p.Total() != 1 {
			t.Errorf("trace total = %v, want 1", p.Total())
		}
	}
}

func TestAccountantBackwardsTimeErrors(t *testing.T) {
	a := mustAccountant(t, 1, 0)
	if err := a.Advance(sim.Second, 10); err != nil {
		t.Fatal(err)
	}
	if err := a.Advance(sim.Millisecond, 10); err == nil {
		t.Error("Advance backwards should error")
	}
	// The failed advance must not have corrupted the accountant: moving
	// forward again still works and integrates from the last good time.
	if err := a.Advance(2*sim.Second, 10); err != nil {
		t.Errorf("recovery advance failed: %v", err)
	}
}

func TestBudgetViolations(t *testing.T) {
	b := mustBudget(t, 20)
	if b.Check(20.05) { // within 0.5% tolerance
		t.Error("power within tolerance flagged as violation")
	}
	if !b.Check(21) {
		t.Error("power above tolerance not flagged")
	}
	b.Check(25)
	count, worst := b.Violations()
	if count != 2 {
		t.Errorf("violations = %d, want 2", count)
	}
	if math.Abs(worst-(25-20*1.005)) > 1e-9 {
		t.Errorf("worst overshoot = %v", worst)
	}
	if rate := b.ViolationRate(); math.Abs(rate-2.0/3.0) > 1e-9 {
		t.Errorf("violation rate = %v", rate)
	}
}

func TestNewBudgetRejectsInvalid(t *testing.T) {
	for _, tdp := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		if _, err := NewBudget(tdp); err == nil {
			t.Errorf("NewBudget(%v) accepted", tdp)
		}
	}
}

func TestNewAccountantRejectsNonPositive(t *testing.T) {
	for _, cores := range []int{0, -1} {
		if _, err := NewAccountant(cores, 0); err == nil {
			t.Errorf("NewAccountant(%d) accepted", cores)
		}
	}
}

// Property: chip power equals the sum over cores of workload+test power,
// and energy share stays within [0,1].
func TestAccountantConsistencyProperty(t *testing.T) {
	prop := func(wl, tst [8]uint8) bool {
		a, err := NewAccountant(8, 0)
		if err != nil {
			return false
		}
		sum := 0.0
		for i := 0; i < 8; i++ {
			w := float64(wl[i]) / 100
			x := float64(tst[i]) / 100
			a.SetWorkload(i, Breakdown{Dynamic: w})
			a.SetTest(i, Breakdown{Dynamic: x})
			sum += w + x
		}
		if math.Abs(a.ChipPower()-sum) > 1e-9 {
			return false
		}
		a.Advance(sim.Second, 100)
		share := a.TestEnergyShare()
		return share >= 0 && share <= 1+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refCore is Model.Core with the leakage product written as one
// expression, as it was before the per-level split; LevelModel and
// Model.Core must both equal it bit for bit.
func refCore(n tech.Node, v, f, activity, tK float64) Breakdown {
	if v <= 0 {
		return Breakdown{}
	}
	return Breakdown{
		Dynamic: n.DynamicPower(v, f, activity),
		Leakage: v * n.ILeak0 * math.Exp(n.KV*(v-n.VNom)) * math.Exp(n.KT*(tK-n.T0)),
	}
}

func TestLevelModelBitEqualsModel(t *testing.T) {
	same := func(a, b Breakdown) bool {
		return math.Float64bits(a.Dynamic) == math.Float64bits(b.Dynamic) &&
			math.Float64bits(a.Leakage) == math.Float64bits(b.Leakage)
	}
	for _, node := range tech.Nodes() {
		m := NewModel(node)
		for _, levels := range []int{2, 8, 22} {
			table := dvfs.NewTable(node, levels)
			lm := NewLevelModel(node, table)
			for l := 0; l < table.Levels(); l++ {
				pt := table.Point(l)
				for tK := 250.0; tK < 450; tK += 0.37 {
					for _, act := range []float64{0, 0.35, 0.95, 1.3} {
						got := lm.Core(l, act, tK)
						want := refCore(node, pt.Voltage, pt.FreqHz, act, tK)
						if !same(got, want) || !same(m.Core(pt.Voltage, pt.FreqHz, act, tK), want) {
							t.Fatalf("%s, %d levels, level %d, T=%v, activity %v: LevelModel %+v, Model %+v, reference %+v",
								node.Name, levels, l, tK, act, got, m.Core(pt.Voltage, pt.FreqHz, act, tK), want)
						}
					}
					if got, want := lm.Core(l, 0, tK), m.IdlePower(pt.Voltage, tK); !same(got, want) {
						t.Fatalf("%s, %d levels, level %d, T=%v: idle LevelModel %+v, IdlePower %+v",
							node.Name, levels, l, tK, got, want)
					}
				}
			}
		}
	}
}
