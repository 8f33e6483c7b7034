package aging

import (
	"fmt"

	"potsim/internal/sim"
)

// CoreAgingState is the serializable wear state of one core.
type CoreAgingState struct {
	EffStressSec float64 `json:"eff_stress_sec"`
	UtilEwma     float64 `json:"util_ewma"`
	LastTempK    float64 `json:"last_temp_k"`
	LastVoltage  float64 `json:"last_voltage"`
	LastActivity float64 `json:"last_activity"`
}

// TrackerState is the serializable state of a Tracker. Params are
// configuration, reconstructed by the caller.
type TrackerState struct {
	Cores  []CoreAgingState `json:"cores"`
	LastAt sim.Time         `json:"last_at"`
}

// Snapshot captures the tracker's per-core wear state and clock.
func (t *Tracker) Snapshot() TrackerState {
	st := TrackerState{Cores: make([]CoreAgingState, len(t.cores)), LastAt: t.lastAt}
	for i, c := range t.cores {
		st.Cores[i] = CoreAgingState{
			EffStressSec: c.effStressSec,
			UtilEwma:     c.utilEwma,
			LastTempK:    c.lastTempK,
			LastVoltage:  c.lastVoltage,
			LastActivity: c.lastActivity,
		}
	}
	return st
}

// Restore overwrites the tracker's state with a snapshot taken from a
// tracker of the same core count.
func (t *Tracker) Restore(st TrackerState) error {
	if len(st.Cores) != len(t.cores) {
		return fmt.Errorf("aging: snapshot has %d cores, tracker has %d", len(st.Cores), len(t.cores))
	}
	for i, c := range st.Cores {
		t.cores[i] = coreAging{
			effStressSec: c.EffStressSec,
			utilEwma:     c.UtilEwma,
			lastTempK:    c.LastTempK,
			lastVoltage:  c.LastVoltage,
			lastActivity: c.LastActivity,
		}
		t.updateStress(i)
	}
	t.lastAt = st.LastAt
	return nil
}
