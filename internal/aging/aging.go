// Package aging models device wear-out for the online-test study: NBTI
// threshold-voltage drift with a power-law in effective stress time, an
// electromigration mean-time-to-failure via Black's equation, and the
// test-criticality metric that ranks cores for testing (the TC'16
// companion of the DATE'15 paper derives exactly this signal from a
// device aging model plus a per-core utilization metric).
package aging

import (
	"fmt"
	"math"

	"potsim/internal/sim"
)

// Boltzmann constant in electronvolt per kelvin.
const boltzmannEvK = 8.617333262e-5

// Params configures the aging model.
type Params struct {
	// NBTI threshold drift: DeltaVth = ACoeff * (effective stress years)^Exp.
	ACoeff float64 // volts at one effective stress year
	Exp    float64 // time exponent, classically ~0.25

	// FailVth is the threshold drift considered end-of-life; the stress
	// indicator is DeltaVth/FailVth clamped to [0,1].
	FailVth float64

	// Voltage acceleration: stress scales by exp(GammaV*(V-VRef)).
	GammaV float64
	VRef   float64

	// Temperature acceleration (Arrhenius): exp(Ea/k * (1/TRef - 1/T)).
	EaEv float64 // activation energy, eV
	TRef float64 // kelvin

	// Electromigration (Black's equation) parameters. No model reads
	// them; they stay because core.Config embeds Params, and every
	// report serialises its Config, so dropping them moves the
	// benchmark's golden digests.
	NEm          float64
	MTTFRefHours float64

	// AccelFactor multiplies wall-clock stress so multi-year wear-out
	// phenomena are observable inside second-scale simulations. 1 means
	// real time; the experiments use large factors and report it.
	AccelFactor float64

	// RecoveryFrac is the fraction of accumulated NBTI stress that can
	// anneal out while a core idles (interface traps partially detrap
	// when the PMOS stress is removed). Idle intervals reduce effective
	// stress at RecoveryFrac times the rate active intervals add it.
	// 0 disables recovery.
	RecoveryFrac float64
}

// DefaultParams returns a parameterisation giving ~10-year end of life for
// a fully-stressed core at reference conditions, with acceleration so that
// simulated seconds expose the ranking behaviour.
func DefaultParams() Params {
	return Params{
		ACoeff:  0.030, // 30 mV after one effective year
		Exp:     0.25,
		FailVth: 0.055, // ~10 effective years to fail: 0.03*10^0.25=0.053
		GammaV:  2.5,
		VRef:    0.80,
		EaEv:    0.49,
		TRef:    318,
		NEm:     1.8, MTTFRefHours: 10 * 365 * 24,
		AccelFactor:  1,
		RecoveryFrac: 0.05,
	}
}

// Validate checks parameter sanity. Every field must be finite: each
// range check below is an ordered comparison, which a NaN passes.
func (p Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"ACoeff", p.ACoeff}, {"Exp", p.Exp}, {"FailVth", p.FailVth},
		{"GammaV", p.GammaV}, {"VRef", p.VRef}, {"EaEv", p.EaEv}, {"TRef", p.TRef},
		{"NEm", p.NEm}, {"MTTFRefHours", p.MTTFRefHours},
		{"AccelFactor", p.AccelFactor}, {"RecoveryFrac", p.RecoveryFrac},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("aging: %s must be finite, got %v", f.name, f.v)
		}
	}
	switch {
	case p.ACoeff <= 0 || p.Exp <= 0 || p.Exp >= 1:
		return fmt.Errorf("aging: need ACoeff>0 and Exp in (0,1)")
	case p.FailVth <= 0:
		return fmt.Errorf("aging: FailVth must be positive")
	case p.TRef <= 0 || p.EaEv <= 0:
		return fmt.Errorf("aging: TRef and EaEv must be positive")
	case p.MTTFRefHours <= 0 || p.NEm <= 0:
		return fmt.Errorf("aging: EM parameters must be positive")
	case p.AccelFactor <= 0:
		return fmt.Errorf("aging: AccelFactor must be positive")
	case p.RecoveryFrac < 0 || p.RecoveryFrac >= 1:
		return fmt.Errorf("aging: RecoveryFrac must be in [0,1)")
	}
	return nil
}

// CoreState is the operating condition of one core over an interval, as
// seen by the aging model.
type CoreState struct {
	Utilization float64 // fraction of the interval the core switched, [0,1]
	Voltage     float64 // volts (0 = power gated)
	TempK       float64 // junction temperature
	// Activity is the switching activity while utilised, [0,1+]. No
	// model reads it; bench/potbench's replay ledger sets it, so it
	// stays until the next change to the benchmark.
	Activity float64
}

// Tracker accumulates per-core aging state.
type Tracker struct {
	params Params //potlint:nosnap configuration, rebuilt by the caller
	cores  []coreAging
	lastAt sim.Time
	// advances counts Advance and Restore calls, the only writers of
	// effStressSec: a core whose stress was computed at another count
	// holds a stale value.
	advances uint64 //potlint:nosnap staleness clock; Restore counts as one, so every restored core reads stale
}

type coreAging struct {
	effStressSec float64 // acceleration-weighted stress seconds
	stress       float64 //potlint:nosnap derived: Stress of effStressSec, computed on the first read after Advance or Restore
	stressAt     uint64  //potlint:nosnap the Tracker.advances count stress was computed at; Restore zeroes it
	utilEwma     float64 // smoothed utilization (the "utilization metric")
	// volt holds exp(GammaV*(v-VRef)) at the last positive voltage v the
	// core ran at: a core keeps one DVFS level for many epochs.
	volt struct{ v, factor float64 } //potlint:nosnap memo; Restore rebuilds the core with v = 0, which no positive voltage matches
}

// NewTracker creates a tracker for n cores.
func NewTracker(n int, p Params) (*Tracker, error) {
	if n <= 0 {
		return nil, fmt.Errorf("aging: invalid core count %d", n)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{params: p, cores: make([]coreAging, n)}, nil
}

// utilEwmaAlpha smooths per-epoch utilization into the long-term
// utilization metric; ~64-epoch memory.
const utilEwmaAlpha = 1.0 / 64

// Advance integrates aging to time now given each core's state over the
// elapsed interval. states must have one entry per core.
//
//potlint:allocfree
func (t *Tracker) Advance(now sim.Time, states []CoreState) error {
	if len(states) != len(t.cores) {
		return fmt.Errorf("aging: got %d states, want %d", len(states), len(t.cores))
	}
	dt := (now - t.lastAt).Seconds()
	if dt < 0 {
		return fmt.Errorf("aging: time went backwards %v -> %v", t.lastAt, now)
	}
	t.lastAt = now
	t.advances++ // every core's stress is stale from here on
	for i, st := range states {
		c := &t.cores[i]
		// An idle core adds dt·AccelFactor·0·af = +0 for any finite af,
		// and af is finite unless the temperature is NaN: max(T, 1)
		// bounds the Arrhenius exponent, a DVFS table the voltage.
		af := 0.0
		//potlint:floateq exact zero: only utilization 0 makes the stress term +0 whatever the finite af
		if st.Utilization != 0 || math.IsNaN(st.TempK) {
			af = t.accel(c, st)
		}
		c.effStressSec += dt * t.params.AccelFactor * st.Utilization * af
		// NBTI partial recovery: the idle fraction of the interval
		// anneals a share of the accumulated stress away.
		idle := 1 - st.Utilization
		if idle > 0 && t.params.RecoveryFrac > 0 {
			relief := dt * t.params.AccelFactor * idle * t.params.RecoveryFrac
			c.effStressSec -= relief
			if c.effStressSec < 0 {
				c.effStressSec = 0
			}
		}
		c.utilEwma += utilEwmaAlpha * (st.Utilization - c.utilEwma)
	}
	return nil
}

// accel is the combined voltage/temperature acceleration factor of core
// c; the voltage factor comes from c's memo when its voltage is unchanged.
func (t *Tracker) accel(c *coreAging, st CoreState) float64 {
	if st.Voltage <= 0 {
		return 0 // power-gated cores do not stress
	}
	p := &t.params
	//potlint:floateq memo key: only the same voltage yields the same factor bits
	if st.Voltage != c.volt.v {
		c.volt.v, c.volt.factor = st.Voltage, math.Exp(p.GammaV*(st.Voltage-p.VRef))
	}
	at := math.Exp(p.EaEv / boltzmannEvK * (1/p.TRef - 1/max(st.TempK, 1)))
	return c.volt.factor * at
}

// DeltaVth returns core id's accumulated NBTI threshold drift in volts.
func (t *Tracker) DeltaVth(id int) float64 {
	years := t.cores[id].effStressSec / (365.25 * 24 * 3600)
	if years <= 0 {
		return 0
	}
	return t.params.ACoeff * pow(years, t.params.Exp)
}

// pow is math.Pow(x, y) for y in (0, 1), bit for bit. For y < 0.5,
// math.Pow returns Ldexp(Exp(y*Log(x)), 0) = Exp(y*Log(x)), and its
// special cases (x = 0, 1, +Inf, NaN) agree; from 0.5 on it takes other
// paths (Sqrt, or fraction y-1), so those exponents call it.
func pow(x, y float64) float64 {
	if y < 0.5 {
		return math.Exp(y * math.Log(x))
	}
	return math.Pow(x, y)
}

// Stress returns core id's wear indicator in [0,1]: DeltaVth relative to
// the end-of-life drift. It is a pure function of the effective stress,
// which only Advance and Restore write, so it is computed on the first
// read after either and stored for later reads. That store makes Stress
// unsafe for concurrent use, like Advance.
func (t *Tracker) Stress(id int) float64 {
	c := &t.cores[id]
	if c.stressAt != t.advances {
		s := t.DeltaVth(id) / t.params.FailVth
		c.stress, c.stressAt = clamp01(s), t.advances
	}
	return c.stress
}

// EffStressSec returns core id's acceleration-weighted stress seconds,
// the state DeltaVth and Stress derive from.
func (t *Tracker) EffStressSec(id int) float64 { return t.cores[id].effStressSec }

// Utilization returns the smoothed utilization metric of core id.
func (t *Tracker) Utilization(id int) float64 { return t.cores[id].utilEwma }

// CriticalityModel converts aging state into the test-criticality number
// the scheduler ranks cores by. A core's target test interval shrinks as
// its stress grows; criticality is elapsed time since the last test over
// that target. Values >= 1 mean a core is overdue.
type CriticalityModel struct {
	// BaseInterval is the desired test period for a fresh core.
	BaseInterval sim.Time
	// StressGain scales how much wear shortens the interval: a fully
	// stressed core is tested (1+StressGain) times more often.
	StressGain float64
	// UtilGain mixes in the utilization metric: highly utilised cores
	// accumulate stress faster and are tested more eagerly (claim C4).
	UtilGain float64
}

// DefaultCriticalityModel matches the experiments: 50 ms base interval
// under accelerated aging, tripled urgency at full stress, doubled at
// full utilization.
func DefaultCriticalityModel() CriticalityModel {
	return CriticalityModel{BaseInterval: 50 * sim.Millisecond, StressGain: 2, UtilGain: 1}
}

// TargetInterval returns the desired time between tests for a core with
// the given stress and utilization (both in [0,1]).
func (m CriticalityModel) TargetInterval(stress, util float64) sim.Time {
	den := 1 + m.StressGain*clamp01(stress) + m.UtilGain*clamp01(util)
	return sim.Time(float64(m.BaseInterval) / den)
}

// Criticality returns the ranking value for a core last tested
// sinceLastTest ago.
func (m CriticalityModel) Criticality(sinceLastTest sim.Time, stress, util float64) float64 {
	ti := m.TargetInterval(stress, util)
	if ti <= 0 {
		return math.Inf(1)
	}
	return float64(sinceLastTest) / float64(ti)
}

// clamp01 clamps x to [0,1] with the builtin min and max. They match
// math.Min and math.Max bit for bit, ±0 included, except on a (±Inf,
// NaN) pair, where math returns the infinity and the builtins NaN; here,
// as in accel's max(T, 1), one operand is a finite constant, so no such
// pair occurs.
func clamp01(x float64) float64 { return min(1, max(0, x)) }
