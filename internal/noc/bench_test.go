package noc

import (
	"testing"

	"potsim/internal/sim"
)

// BenchmarkStepLoaded measures router cycles per second at moderate load.
func BenchmarkStepLoaded(b *testing.B) {
	net, err := NewNetwork(DefaultConfig(8, 8))
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewGenerator(net, sim.NewRNG(1).Stream("b"), 0.3, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gen.Tick(); err != nil {
			b.Fatal(err)
		}
		net.Step()
	}
}

// BenchmarkNoCStep measures flit-level router cycles per second on an
// 8x8 mesh in the exact shape of the per-epoch co-simulation loop:
// inject, step, release delivered packets back to the freelist. The
// offered load (0.15 flits/node/cycle) sits below this mesh's
// saturation point so the network genuinely reaches steady state —
// at saturating loads the queues deepen without bound and no
// allocation pin can hold. Steady state is alloc-free (pinned by
// TestStepSteadyStateZeroAlloc).
func BenchmarkNoCStep(b *testing.B) {
	net, err := NewNetwork(DefaultConfig(8, 8))
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewGenerator(net, sim.NewRNG(1).Stream("bench"), 0.15, 4)
	if err != nil {
		b.Fatal(err)
	}
	// Warm past the transient: freelist, FIFOs and staging slices reach
	// their steady-state capacities.
	for i := 0; i < 4096; i++ {
		if err := gen.Tick(); err != nil {
			b.Fatal(err)
		}
		net.Step()
		net.ReleaseDelivered(len(net.Delivered()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gen.Tick(); err != nil {
			b.Fatal(err)
		}
		net.Step()
		net.ReleaseDelivered(len(net.Delivered()))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkStepIdle measures the idle-router fast path.
func BenchmarkStepIdle(b *testing.B) {
	net, err := NewNetwork(DefaultConfig(8, 8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkTxnLatency measures the analytic model evaluation cost.
func BenchmarkTxnLatency(b *testing.B) {
	m := NewTxnModel(DefaultConfig(8, 8))
	src, dst := Coord{0, 0}, Coord{7, 5}
	for i := 0; i < b.N; i++ {
		_ = m.Latency(src, dst, 4096, 0.5)
	}
}
