package aging

import (
	"math"
	"testing"

	"potsim/internal/sim"
)

// exprStress is the wear indicator by definition, evaluated from the
// current effective stress: DeltaVth over FailVth, clamped to [0,1].
func exprStress(t *Tracker, id int) float64 {
	s := t.DeltaVth(id) / t.params.FailVth
	return math.Min(math.Max(s, 0), 1)
}

// Stress reads a value stored by Advance and Restore; it must be
// bit-equal to the expression at every point a caller can observe.
func TestStressBitEqualsExpression(t *testing.T) {
	states := []CoreState{
		{Utilization: 1, Voltage: 1.0, TempK: 365, Activity: 1.2},
		{Utilization: 0.5, Voltage: 0.8, TempK: 330, Activity: 0.6},
		{Utilization: 0.02, Voltage: 0.7, TempK: 320, Activity: 0.2}, // recovery wins
		{Utilization: 0.9, Voltage: 0, TempK: 310},                   // power gated
	}
	// Real time leaves every core far below end of life; a large
	// acceleration drives the busiest core into the clamp at 1.
	for _, accel := range []float64{1, 1e11} {
		p := DefaultParams()
		p.AccelFactor = accel
		tr := mustTracker(t, len(states), p)
		check := func(when string, tr *Tracker) {
			t.Helper()
			for id := range states {
				if got, want := tr.Stress(id), exprStress(tr, id); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("accel %g, %s: core %d Stress %v, expression %v", accel, when, id, got, want)
				}
			}
		}
		check("before any Advance", tr)
		for step := 1; step <= 5; step++ {
			if err := tr.Advance(sim.Time(step)*10*sim.Millisecond, states); err != nil {
				t.Fatal(err)
			}
			check("after Advance", tr)
		}
		if s := tr.Stress(0); accel == 1 && (s <= 0 || s >= 1) || accel > 1 && s != 1 {
			t.Errorf("accel %g: core 0 stress %v, want inside (0,1) in real time and clamped to 1 accelerated", accel, s)
		}
		restored := mustTracker(t, len(states), p)
		if err := restored.Restore(tr.Snapshot()); err != nil {
			t.Fatal(err)
		}
		check("after Restore", restored)
		for id := range states {
			if math.Float64bits(restored.Stress(id)) != math.Float64bits(tr.Stress(id)) {
				t.Errorf("accel %g: core %d restored stress %v, original %v", accel, id, restored.Stress(id), tr.Stress(id))
			}
		}
	}
}
