package tech

import (
	"math"
	"testing"
)

func TestNodesValidate(t *testing.T) {
	for _, n := range Nodes() {
		if err := n.Validate(); err != nil {
			t.Errorf("node %s invalid: %v", n.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	n, err := ByName("16nm")
	if err != nil {
		t.Fatal(err)
	}
	if n.FeatureNm != 16 {
		t.Errorf("ByName(16nm).FeatureNm = %d", n.FeatureNm)
	}
	if _, err := ByName("7nm"); err == nil {
		t.Error("ByName(7nm) should fail")
	}
}

func TestFreqAtNominal(t *testing.T) {
	for _, n := range Nodes() {
		got := n.FreqAt(n.VNom)
		if math.Abs(got-n.FMaxHz)/n.FMaxHz > 1e-9 {
			t.Errorf("%s: FreqAt(VNom) = %v, want %v", n.Name, got, n.FMaxHz)
		}
		if n.FreqAt(n.VTh) != 0 {
			t.Errorf("%s: FreqAt(VTh) should be 0", n.Name)
		}
		if n.FreqAt(n.VTh-0.05) != 0 {
			t.Errorf("%s: sub-threshold frequency should be 0", n.Name)
		}
	}
}

func TestFreqMonotonicInVoltage(t *testing.T) {
	n := Default()
	prev := -1.0
	for v := n.VMin; v <= n.VNom+1e-9; v += 0.01 {
		f := n.FreqAt(v)
		if f <= prev {
			t.Fatalf("FreqAt not strictly increasing at v=%v: %v <= %v", v, f, prev)
		}
		prev = f
	}
}

func TestDynamicPowerScaling(t *testing.T) {
	n := Default()
	p1 := n.DynamicPower(n.VNom, n.FMaxHz, 1)
	pHalfAct := n.DynamicPower(n.VNom, n.FMaxHz, 0.5)
	if math.Abs(pHalfAct-p1/2) > 1e-12 {
		t.Errorf("dynamic power not linear in activity: %v vs %v", pHalfAct, p1/2)
	}
	pHalfF := n.DynamicPower(n.VNom, n.FMaxHz/2, 1)
	if math.Abs(pHalfF-p1/2) > 1e-12 {
		t.Errorf("dynamic power not linear in frequency: %v vs %v", pHalfF, p1/2)
	}
	pHalfV := n.DynamicPower(n.VNom/2, n.FMaxHz, 1)
	if math.Abs(pHalfV-p1/4) > 1e-12 {
		t.Errorf("dynamic power not quadratic in voltage: %v vs %v", pHalfV, p1/4)
	}
	if n.DynamicPower(n.VNom, n.FMaxHz, -3) != 0 {
		t.Error("negative activity should clamp to zero power")
	}
}

func TestLeakageIncreasesWithTemperature(t *testing.T) {
	n := Default()
	cold := n.LeakagePower(n.VNom, 300)
	hot := n.LeakagePower(n.VNom, 360)
	if hot <= cold {
		t.Errorf("leakage should grow with temperature: cold=%v hot=%v", cold, hot)
	}
	if n.LeakagePower(0, 318) != 0 {
		t.Error("zero supply voltage should have zero leakage")
	}
}

func TestLeakageIncreasesWithVoltage(t *testing.T) {
	n := Default()
	lo := n.LeakagePower(n.VMin, n.T0)
	hi := n.LeakagePower(n.VNom, n.T0)
	if hi <= lo {
		t.Errorf("leakage should grow with voltage: lo=%v hi=%v", lo, hi)
	}
}

// The dark-silicon trend: under the reference package TDP, the dark
// fraction grows monotonically from ~0 at 45nm to ~half or more at 16nm.
func TestDarkSiliconTrend(t *testing.T) {
	const tdp = 32.0 // watts, sized so 45nm is (almost) fully lit
	prev := -1.0
	for _, n := range Nodes() {
		df := n.DarkFraction(tdp, 0)
		if df < prev {
			t.Errorf("dark fraction not monotone: %s has %v after %v", n.Name, df, prev)
		}
		prev = df
	}
	if df45 := node45.DarkFraction(tdp, 0); df45 > 0.10 {
		t.Errorf("45nm dark fraction = %v, want near zero", df45)
	}
	if df16 := node16.DarkFraction(tdp, 0); df16 < 0.40 {
		t.Errorf("16nm dark fraction = %v, want >= 0.40", df16)
	}
}

func TestDarkFractionClamped(t *testing.T) {
	n := Default()
	if df := n.DarkFraction(1e6, 64); df != 0 {
		t.Errorf("huge TDP should give 0 dark fraction, got %v", df)
	}
	if df := n.DarkFraction(0, 64); df != 1 {
		t.Errorf("zero TDP should give fully dark chip, got %v", df)
	}
}

func TestOperatingPoints(t *testing.T) {
	n := Default()
	pts := n.OperatingPoints(8)
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].FreqHz <= pts[i-1].FreqHz {
			t.Errorf("operating points not sorted ascending at %d", i)
		}
	}
	top := pts[len(pts)-1]
	if math.Abs(top.Voltage-n.VNom) > 1e-9 || math.Abs(top.FreqHz-n.FMaxHz)/n.FMaxHz > 1e-9 {
		t.Errorf("top point should be (VNom, FMax), got (%v, %v)", top.Voltage, top.FreqHz)
	}
	bottom := pts[0]
	if math.Abs(bottom.Voltage-n.VMin) > 1e-9 {
		t.Errorf("bottom point should be near-threshold VMin, got %v", bottom.Voltage)
	}
	if got := n.OperatingPoints(1); len(got) != 2 {
		t.Errorf("levels<2 should yield 2 points, got %d", len(got))
	}
}

func TestPeakCorePowerOrdering(t *testing.T) {
	// Per-core peak power must shrink with scaling (that is what makes
	// more cores fit) while total die peak power grows (that is what
	// makes silicon dark).
	nodes := Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i].PeakCorePower() >= nodes[i-1].PeakCorePower() {
			t.Errorf("per-core peak power should shrink: %s=%v, %s=%v",
				nodes[i-1].Name, nodes[i-1].PeakCorePower(),
				nodes[i].Name, nodes[i].PeakCorePower())
		}
		diePrev := float64(nodes[i-1].CoresPerDie) * nodes[i-1].PeakCorePower()
		dieCur := float64(nodes[i].CoresPerDie) * nodes[i].PeakCorePower()
		if dieCur <= diePrev {
			t.Errorf("die peak power should grow: %s=%v, %s=%v",
				nodes[i-1].Name, diePrev, nodes[i].Name, dieCur)
		}
	}
}

func TestValidateRejectsEveryDefect(t *testing.T) {
	base := Default()
	mut := map[string]func(*Node){
		"vth <= 0":     func(n *Node) { n.VTh = 0 },
		"vmin <= vth":  func(n *Node) { n.VMin = n.VTh },
		"vnom <= vmin": func(n *Node) { n.VNom = n.VMin },
		"fmax <= 0":    func(n *Node) { n.FMaxHz = 0 },
		"ceff <= 0":    func(n *Node) { n.CeffF = 0 },
		"ileak < 0":    func(n *Node) { n.ILeak0 = -1 },
		"cores <= 0":   func(n *Node) { n.CoresPerDie = 0 },
	}
	for name, m := range mut {
		n := base
		m(&n)
		if n.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestDarkFractionDefaultCores(t *testing.T) {
	n := Default()
	// cores <= 0 falls back to CoresPerDie.
	viaDefault := n.DarkFraction(32, 0)
	viaExplicit := n.DarkFraction(32, n.CoresPerDie)
	if viaDefault != viaExplicit {
		t.Errorf("default-cores dark fraction %v != explicit %v", viaDefault, viaExplicit)
	}
}
