package noc

import (
	"testing"

	"potsim/internal/sim"
)

// TestStepSteadyStateZeroAlloc pins the co-simulation loop's allocation
// behaviour: once warmed past the transient (FIFO capacities grown,
// freelist populated), a loaded cycle — inject, step, release — must
// not allocate at all. The offered load sits below saturation so the
// network actually reaches a steady state; see BenchmarkNoCStep.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	net, err := NewNetwork(DefaultConfig(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(net, sim.NewRNG(1).Stream("alloc"), 0.15, 4)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if err := gen.Tick(); err != nil {
			t.Fatal(err)
		}
		net.Step()
		net.ReleaseDelivered(len(net.Delivered()))
	}
	for i := 0; i < 8192; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("steady-state NoC cycle allocates %.3f times per step, want 0", avg)
	}
}
