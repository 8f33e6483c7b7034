// Package tech models CMOS technology nodes for the dark-silicon study:
// per-node nominal voltages, threshold voltages, effective switched
// capacitance, leakage coefficients, and the alpha-power frequency law.
//
// The numbers are synthetic but follow the classic dark-silicon scaling
// narrative (Esmaeilzadeh et al., ISCA'11; Haghbayan et al., ICCD'14):
// with each node transistor density roughly doubles while per-core power
// drops only by ~0.7x, so under a fixed package TDP the fraction of the
// chip that can be lit shrinks from ~100% at 45nm to roughly half at 16nm.
package tech

import (
	"fmt"
	"math"
	"sort"
)

// Node describes one CMOS technology node at the granularity the
// system-level simulation needs: enough to compute per-core dynamic and
// leakage power at any (V, f, T) operating point.
type Node struct {
	Name      string  // e.g. "16nm"
	FeatureNm int     // drawn feature size in nanometres
	VNom      float64 // nominal supply voltage, volts
	VMin      float64 // minimum (near-threshold) supply voltage, volts
	VTh       float64 // threshold voltage, volts
	FMaxHz    float64 // maximum clock at VNom, hertz

	// CeffF is the effective switched capacitance of one core in farads;
	// dynamic power is CeffF * V^2 * f * activity.
	CeffF float64

	// Leakage model: Pleak = V * ILeak0 * exp(KV*(V-VNom)) * exp(KT*(T-T0)).
	ILeak0 float64 // leakage current at (VNom, T0), amperes
	KV     float64 // voltage sensitivity, 1/volt
	KT     float64 // temperature sensitivity, 1/kelvin
	T0     float64 // reference temperature, kelvin

	// CoresPerDie is the core count that fits the reference die at this
	// node (density doubling per generation from the 45nm baseline).
	CoresPerDie int

	// Alpha is the exponent of the alpha-power delay law used to map
	// supply voltage to achievable frequency.
	Alpha float64
}

// Nodes returns the four technology nodes of the study, newest last.
// The returned slice is freshly allocated; callers may modify it.
func Nodes() []Node {
	return []Node{node45, node32, node22, node16}
}

// reference die: 16 cores at 45nm, density doubling each generation.
var (
	node45 = Node{
		Name: "45nm", FeatureNm: 45,
		VNom: 1.10, VMin: 0.55, VTh: 0.40, FMaxHz: 2.0e9,
		CeffF:  ceffFor(1.60, 1.10, 2.0e9),
		ILeak0: leakFor(0.40, 1.10), KV: 3.0, KT: 0.018, T0: 318,
		CoresPerDie: 16, Alpha: 1.3,
	}
	node32 = Node{
		Name: "32nm", FeatureNm: 32,
		VNom: 1.00, VMin: 0.50, VTh: 0.38, FMaxHz: 2.0e9,
		CeffF:  ceffFor(1.10, 1.00, 2.0e9),
		ILeak0: leakFor(0.30, 1.00), KV: 3.3, KT: 0.020, T0: 318,
		CoresPerDie: 32, Alpha: 1.3,
	}
	node22 = Node{
		Name: "22nm", FeatureNm: 22,
		VNom: 0.90, VMin: 0.42, VTh: 0.34, FMaxHz: 2.0e9,
		CeffF:  ceffFor(0.76, 0.90, 2.0e9),
		ILeak0: leakFor(0.22, 0.90), KV: 3.7, KT: 0.022, T0: 318,
		CoresPerDie: 64, Alpha: 1.3,
	}
	node16 = Node{
		Name: "16nm", FeatureNm: 16,
		VNom: 0.80, VMin: 0.35, VTh: 0.30, FMaxHz: 2.0e9,
		CeffF:  ceffFor(0.52, 0.80, 2.0e9),
		ILeak0: leakFor(0.16, 0.80), KV: 4.2, KT: 0.025, T0: 318,
		CoresPerDie: 128, Alpha: 1.3,
	}
)

// ceffFor solves Ceff from a target peak dynamic power at (VNom, FMax).
func ceffFor(peakW, vnom, fmax float64) float64 {
	return peakW / (vnom * vnom * fmax)
}

// leakFor solves ILeak0 from a target leakage power at (VNom, T0).
func leakFor(leakW, vnom float64) float64 {
	return leakW / vnom
}

// ByName returns the node with the given name ("45nm".."16nm").
func ByName(name string) (Node, error) {
	for _, n := range Nodes() {
		if n.Name == name {
			return n, nil
		}
	}
	return Node{}, fmt.Errorf("tech: unknown node %q", name)
}

// Default returns the 16nm node the paper's headline results target.
func Default() Node { return node16 }

// FreqAt returns the maximum achievable clock frequency at supply voltage
// v using the alpha-power law f(v) = k * (v-VTh)^Alpha / v, normalised so
// that FreqAt(VNom) == FMaxHz. Voltages at or below threshold yield 0.
func (n Node) FreqAt(v float64) float64 {
	if v <= n.VTh {
		return 0
	}
	shape := func(x float64) float64 {
		return math.Pow(x-n.VTh, n.Alpha) / x
	}
	return n.FMaxHz * shape(v) / shape(n.VNom)
}

// DynamicPower returns core dynamic power in watts at supply voltage v,
// frequency f (hertz) and switching activity in [0,1].
func (n Node) DynamicPower(v, f, activity float64) float64 {
	if activity < 0 {
		activity = 0
	}
	return n.CeffF * v * v * f * activity
}

// LeakagePower returns core leakage power in watts at supply voltage v
// and junction temperature tK (kelvin).
func (n Node) LeakagePower(v, tK float64) float64 {
	if v <= 0 {
		return 0
	}
	return v * n.ILeak0 * math.Exp(n.KV*(v-n.VNom)) * math.Exp(n.KT*(tK-n.T0))
}

// PeakCorePower is the per-core power at (VNom, FMax, activity=1, T0):
// the figure dark-silicon budgeting is computed against.
func (n Node) PeakCorePower() float64 {
	return n.DynamicPower(n.VNom, n.FMaxHz, 1) + n.LeakagePower(n.VNom, n.T0)
}

// DarkFraction returns the fraction of cores that cannot be powered at
// peak under the given package TDP: 1 - TDP/(cores*peak), clamped to
// [0,1]. cores <= 0 uses CoresPerDie.
func (n Node) DarkFraction(tdpW float64, cores int) float64 {
	if cores <= 0 {
		cores = n.CoresPerDie
	}
	peak := float64(cores) * n.PeakCorePower()
	if peak <= 0 {
		return 0
	}
	df := 1 - tdpW/peak
	return math.Min(math.Max(df, 0), 1)
}

// OperatingPoint is one DVFS level: a (V, f) pair.
type OperatingPoint struct {
	Voltage float64 // volts
	FreqHz  float64 // hertz
}

// OperatingPoints generates levels evenly spaced in voltage from VMin
// (near-threshold) up to VNom, each paired with the maximum frequency the
// alpha-power law allows. The result is sorted ascending by frequency and
// always contains at least two points (VMin and VNom) for levels >= 2.
func (n Node) OperatingPoints(levels int) []OperatingPoint {
	if levels < 2 {
		levels = 2
	}
	pts := make([]OperatingPoint, 0, levels)
	for i := 0; i < levels; i++ {
		v := n.VMin + (n.VNom-n.VMin)*float64(i)/float64(levels-1)
		pts = append(pts, OperatingPoint{Voltage: v, FreqHz: n.FreqAt(v)})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].FreqHz < pts[j].FreqHz })
	return pts
}

// Validate checks internal consistency of a node definition.
func (n Node) Validate() error {
	switch {
	case n.VTh <= 0 || n.VMin <= n.VTh || n.VNom <= n.VMin:
		return fmt.Errorf("tech %s: need 0 < VTh < VMin < VNom, got VTh=%v VMin=%v VNom=%v",
			n.Name, n.VTh, n.VMin, n.VNom)
	case n.FMaxHz <= 0:
		return fmt.Errorf("tech %s: FMaxHz must be positive", n.Name)
	case n.CeffF <= 0:
		return fmt.Errorf("tech %s: CeffF must be positive", n.Name)
	case n.ILeak0 < 0:
		return fmt.Errorf("tech %s: ILeak0 must be non-negative", n.Name)
	case n.CoresPerDie <= 0:
		return fmt.Errorf("tech %s: CoresPerDie must be positive", n.Name)
	}
	return nil
}
