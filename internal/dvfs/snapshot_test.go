package dvfs

import (
	"encoding/json"
	"testing"
)

func TestPIDSnapshotRoundTrip(t *testing.T) {
	mk := func() *PIDCapper {
		c, err := NewPIDCapper(DefaultPIDConfig(12))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := mk()
	for _, w := range []float64{8, 14, 13, 12.5, 11, 15} {
		c.Update(w, 1e-4)
	}
	blob, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var st PIDState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	d := mk()
	if err := d.Restore(st); err != nil {
		t.Fatal(err)
	}
	if d.Throttle() != c.Throttle() || d.TDP() != c.TDP() {
		t.Fatal("restored controller differs")
	}
	// Continuation: identical control trajectory.
	for _, w := range []float64{9.5, 10.4, 10.1, 9.9} {
		if c.Update(w, 1e-4) != d.Update(w, 1e-4) {
			t.Fatal("control trajectory diverged after restore")
		}
	}
}

func TestPIDRestoreValidation(t *testing.T) {
	c, _ := NewPIDCapper(DefaultPIDConfig(10))
	if err := c.Restore(PIDState{Throttle: 2}); err == nil {
		t.Fatal("out-of-range throttle accepted")
	}
}
