package aging

import (
	"encoding/json"
	"reflect"
	"testing"

	"potsim/internal/sim"
)

func TestTrackerSnapshotRoundTrip(t *testing.T) {
	p := DefaultParams()
	p.AccelFactor = 1e6
	mk := func() *Tracker {
		tr, err := NewTracker(4, p)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr := mk()
	states := []CoreState{
		{Utilization: 0.9, Voltage: 0.85, TempK: 345},
		{Utilization: 0.2, Voltage: 0.70, TempK: 325},
		{Utilization: 0.0, Voltage: 0.00, TempK: 320},
		{Utilization: 0.6, Voltage: 0.80, TempK: 335},
	}
	for _, at := range []sim.Time{sim.Millisecond, 5 * sim.Millisecond, 9 * sim.Millisecond} {
		if err := tr.Advance(at, states); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var st TrackerState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	tr2 := mk()
	if err := tr2.Restore(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Snapshot(), tr2.Snapshot()) {
		t.Fatal("restored tracker state differs")
	}
	for _, x := range []*Tracker{tr, tr2} {
		if err := x.Advance(14*sim.Millisecond, states); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if tr.Stress(i) != tr2.Stress(i) || tr.Utilization(i) != tr2.Utilization(i) {
			t.Fatalf("core %d continuation diverged", i)
		}
	}
}

func TestTrackerRestoreRejectsSizeMismatch(t *testing.T) {
	a, _ := NewTracker(2, DefaultParams())
	b, _ := NewTracker(3, DefaultParams())
	if err := b.Restore(a.Snapshot()); err == nil {
		t.Fatal("size mismatch accepted")
	}
}
