package aging

import (
	"math"
	"math/rand"
	"testing"

	"potsim/internal/sim"
)

// same reports whether a and b are the same float64 bits, or both NaN:
// NaN payloads differ between math.Pow and math.Log, and no output
// carries them (JSON has no NaN, and the guards test math.IsNaN).
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// refTracker is the tracker before the epoch kernels, kept as the
// reference: accel for every core with both exponentials recomputed,
// and math.Pow in DeltaVth.
type refTracker struct {
	p                 Params
	eff, stress, util []float64
	lastAt            sim.Time
}

func newRefTracker(n int, p Params) *refTracker {
	return &refTracker{p: p, eff: make([]float64, n), stress: make([]float64, n), util: make([]float64, n)}
}

func (r *refTracker) advance(now sim.Time, states []CoreState) {
	p := r.p
	dt := (now - r.lastAt).Seconds()
	r.lastAt = now
	for i, st := range states {
		af := 0.0
		if st.Voltage > 0 {
			av := math.Exp(p.GammaV * (st.Voltage - p.VRef))
			at := math.Exp(p.EaEv / boltzmannEvK * (1/p.TRef - 1/math.Max(st.TempK, 1)))
			af = av * at
		}
		r.eff[i] += dt * p.AccelFactor * st.Utilization * af
		idle := 1 - st.Utilization
		if idle > 0 && p.RecoveryFrac > 0 {
			relief := dt * p.AccelFactor * idle * p.RecoveryFrac
			r.eff[i] -= relief
			if r.eff[i] < 0 {
				r.eff[i] = 0
			}
		}
		s := r.deltaVth(i) / p.FailVth
		r.stress[i] = math.Min(math.Max(s, 0), 1)
		r.util[i] += utilEwmaAlpha * (st.Utilization - r.util[i])
	}
}

func (r *refTracker) deltaVth(id int) float64 {
	years := r.eff[id] / (365.25 * 24 * 3600)
	if years <= 0 {
		return 0
	}
	return r.p.ACoeff * math.Pow(years, r.p.Exp)
}

// powInputs are the special values pow must agree with math.Pow on.
var powInputs = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1030, 1e-300,
	1, math.Nextafter(1, 0), math.Nextafter(1, 2), 1e300, math.MaxFloat64,
	math.Inf(1), math.NaN(), -1,
}

func checkPow(t *testing.T, x float64) {
	t.Helper()
	for _, y := range []float64{0.1, 0.25, 0.3, 0.49, 0.5, 0.75} {
		if got, want := pow(x, y), math.Pow(x, y); !same(got, want) {
			t.Fatalf("pow(%v, %v) = %v (%#016x), math.Pow %v (%#016x)",
				x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestPowBitEqualsMathPow(t *testing.T) {
	for _, x := range powInputs {
		checkPow(t, x)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		checkPow(t, math.Float64frombits(rng.Uint64()>>1)) // every positive float64, NaNs and Inf included
		checkPow(t, rng.ExpFloat64()*1e-3)                 // the years a simulation reaches
	}
}

// trackerSequence runs the tracker and the reference over one random
// sequence of core states drawn from seed, failing at the first bit
// that differs. Stress is computed on the first read after an Advance
// or Restore, so it is compared through Stress on a random subset of
// steps and cores, some read twice, with runs of steps that read
// nothing; midway the tracker is swapped for one restored from its
// snapshot.
func trackerSequence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := DefaultParams()
	p.Exp = []float64{0.1, 0.25, 0.3, 0.49, 0.5, 0.6, 0.75}[rng.Intn(7)]
	p.AccelFactor = []float64{1, 1e4, 1e7}[rng.Intn(3)]
	p.RecoveryFrac = []float64{0, 0.05, 0.5}[rng.Intn(3)]
	const n = 6
	tr, err := NewTracker(n, p)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefTracker(n, p)
	volts := []float64{0, 0.35, 0.5, 0.65, 0.8, 1.1} // gated, then table levels
	states := make([]CoreState, n)
	now := sim.Time(0)
	const steps = 200
	restoreAt, quiet := rng.Intn(steps), 0
	for step := 0; step < steps; step++ {
		now += sim.Time(rng.Intn(3)) * 100 * sim.Microsecond // dt 0 included
		randomStates(rng, states, volts)
		if err := tr.Advance(now, states); err != nil {
			t.Fatal(err)
		}
		ref.advance(now, states)
		if step == restoreAt {
			tr = restoredCopy(t, rng, tr, now, volts)
		}
		if quiet > 0 {
			quiet--
		} else if rng.Intn(10) == 0 {
			quiet = 1 + rng.Intn(10) // a run of steps that read no stress
		}
		for i := range states {
			reads := rng.Intn(3)
			if quiet > 0 {
				reads = 0
			}
			for r := 0; r < reads; r++ {
				if got := tr.Stress(i); !same(got, ref.stress[i]) {
					t.Fatalf("seed %d step %d core %d read %d (Exp %v, restored at %d): Stress %v, reference %v",
						seed, step, i, r, p.Exp, restoreAt, got, ref.stress[i])
				}
			}
			if !same(tr.EffStressSec(i), ref.eff[i]) || !same(tr.Utilization(i), ref.util[i]) ||
				!same(tr.DeltaVth(i), ref.deltaVth(i)) {
				t.Fatalf("seed %d step %d core %d (Exp %v, state %+v): tracker eff=%v util=%v dvth=%v, reference eff=%v util=%v dvth=%v",
					seed, step, i, p.Exp, states[i], tr.EffStressSec(i), tr.Utilization(i), tr.DeltaVth(i),
					ref.eff[i], ref.util[i], ref.deltaVth(i))
			}
		}
	}
}

// randomStates draws one interval's core states, keeping each core's
// voltage with probability 3/4 so the voltage memo both hits and misses.
func randomStates(rng *rand.Rand, states []CoreState, volts []float64) {
	for i := range states {
		st := &states[i]
		if rng.Intn(4) == 0 { // a level change
			st.Voltage = volts[rng.Intn(len(volts))]
		}
		st.Utilization = []float64{0, 0, 1, 1, 0.3}[rng.Intn(5)]
		st.TempK = 300 + 80*rng.Float64()
		switch rng.Intn(40) {
		case 0:
			st.TempK = math.NaN()
		case 1:
			st.TempK = 0 // below max(T, 1)
		case 2:
			st.TempK = math.Inf(1)
		}
	}
}

// restoredCopy restores tr's snapshot into a new tracker that first
// advanced up to twice over unrelated states and read every stress, so
// its cores hold stress values computed at its own latest Advance.
func restoredCopy(t *testing.T, rng *rand.Rand, tr *Tracker, now sim.Time, volts []float64) *Tracker {
	t.Helper()
	re, err := NewTracker(len(tr.cores), tr.params)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]CoreState, len(tr.cores))
	for k := rng.Intn(3); k > 0; k-- {
		randomStates(rng, states, volts)
		if err := re.Advance(now, states); err != nil {
			t.Fatal(err)
		}
		for i := range states {
			re.Stress(i)
		}
	}
	if err := re.Restore(tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return re
}

func TestAdvanceBitEqualsReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		trackerSequence(t, seed)
	}
}

// FuzzAgingMatchesReference checks pow against math.Pow at x, and the
// tracker against the reference over the state sequence seed draws.
func FuzzAgingMatchesReference(f *testing.F) {
	for i, x := range powInputs {
		f.Add(x, int64(i))
	}
	f.Fuzz(func(t *testing.T, x float64, seed int64) {
		checkPow(t, x)
		trackerSequence(t, seed)
	})
}

// clampInputs are the special values the builtin clamps must agree with
// math.Min and math.Max on.
var clampInputs = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030,
	1, math.Nextafter(1, 0), math.Nextafter(1, 2), -1, math.MaxFloat64, -math.MaxFloat64,
}

// checkClamps compares the aging clamps at x with their math.Min and
// math.Max forms: clamp01, which TargetInterval and Stress use (Stress
// clamped as math.Min(math.Max(s, 0), 1) before), and accel's max(T, 1).
func checkClamps(t *testing.T, x float64) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"clamp01", clamp01(x), math.Min(1, math.Max(0, x))},
		{"clamp01 as Stress's clamp", clamp01(x), math.Min(math.Max(x, 0), 1)},
		{"max(T, 1)", max(x, 1), math.Max(x, 1)},
	} {
		if !same(c.got, c.want) {
			t.Fatalf("%s at %v (%#016x): builtin %v (%#016x), math %v (%#016x)",
				c.name, x, math.Float64bits(x), c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
}

// TestBuiltinClampsBitEqualMath pins the builtin min and max in aging's
// clamps to the math functions they replaced. The two differ on one
// pair only: math.Max(±Inf, NaN) and math.Min(±Inf, NaN) return the
// infinity, the builtins NaN. Every clamp in aging has a finite
// constant operand (0, 1), so no site can pass that pair.
func TestBuiltinClampsBitEqualMath(t *testing.T) {
	for _, x := range clampInputs {
		checkClamps(t, x)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		checkClamps(t, math.Float64frombits(rng.Uint64())) // every float64, NaNs and both signs included
	}
	inf, nan := math.Inf(1), math.NaN()
	if !math.IsInf(math.Max(inf, nan), 1) || !math.IsNaN(max(inf, nan)) ||
		!math.IsInf(math.Min(-inf, nan), -1) || !math.IsNaN(min(-inf, nan)) {
		t.Error("the (±Inf, NaN) divergence documented above no longer holds; revisit the clamps' comment")
	}
}
