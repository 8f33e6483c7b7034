package main

import (
	"slices"
	"testing"
	"time"
)

// Each kernel sample scales only the host times recorded since the
// previous one.
func TestScalePairsHostTimesWithTheirOwnSample(t *testing.T) {
	r := &run{}
	r.addOp(10)
	r.addOp(20)
	r.addHost(2 * time.Second)
	r.scale(0.5)
	r.addOp(10)
	r.addHost(time.Second)
	r.scale(2)
	r.scale(3) // nothing pending
	if want := []float64{5, 10, 20}; !slices.Equal(r.ops, want) {
		t.Errorf("ops %v, want %v", r.ops, want)
	}
	if r.hostS != 3 {
		t.Errorf("hostS %v, want 3", r.hostS)
	}
}
