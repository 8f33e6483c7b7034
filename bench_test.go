package potsim

// One benchmark per reproduced table/figure (E1..E19, see DESIGN.md).
// Each bench regenerates its experiment in quick mode and logs the table,
// so `go test -bench=. -benchmem` re-prints the rows the paper reports.
// Additional micro-benchmarks cover the hot paths of the substrates.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"potsim/internal/batch"
	"potsim/internal/core"
	"potsim/internal/expt"
	"potsim/internal/noc"
	"potsim/internal/sim"
)

// benchExperiment regenerates experiment id once per iteration. The
// runner construction and the first rendered table stay outside the
// timed region so only the regeneration itself is measured.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner := &expt.Runner{Quick: true}
	res, err := runner.Run(id)
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + res.Render())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1ThroughputPenalty(b *testing.B)     { benchExperiment(b, "E1") }
func BenchmarkE2PowerTrace(b *testing.B)            { benchExperiment(b, "E2") }
func BenchmarkE3CriticalityAdaptation(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4VfCoverage(b *testing.B)            { benchExperiment(b, "E4") }
func BenchmarkE5MappingPolicies(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6Scalability(b *testing.B)           { benchExperiment(b, "E6") }
func BenchmarkE7TechnologySweep(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8FaultDetection(b *testing.B)        { benchExperiment(b, "E8") }
func BenchmarkE9BudgetSweep(b *testing.B)           { benchExperiment(b, "E9") }
func BenchmarkE10Ablations(b *testing.B)            { benchExperiment(b, "E10") }

// BenchmarkSystemEpoch measures one steady-state control epoch on the
// default 8x8 setup: interval integration, invariant checks, power
// control and test scheduling, with the system built once outside the
// timed region. Its steady state is alloc-free (pinned by
// core.TestEpochZeroAllocSteadyState); the whole-run shape lives in
// BenchmarkSystemRun.
func BenchmarkSystemEpoch(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.TraceEvery = 0                // retained trace rows are not epoch work
	cfg.SchedOptions.MaxTestTempK = 1 // launches allocate executions by design
	sys, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := sys.StepEpoch(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.StepEpoch(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cfg.Epoch.Seconds()*1e3*float64(b.N)/b.Elapsed().Seconds(), "sim-ms/s")
}

// BenchmarkSystemRun measures the full simulation rate — assembly,
// arrivals, mapping, the whole control loop — as simulated manycore
// milliseconds per wall-clock second on the default setup. This is the
// seed benchmark shape, kept for longitudinal comparison.
func BenchmarkSystemRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Horizon = 50 * sim.Millisecond
		sys, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(50*float64(b.N)/b.Elapsed().Seconds(), "sim-ms/s")
}

// BenchmarkSystemRun32 is the large-mesh whole-run shape: a 1024-core
// (32x32) mesh over 50 ms of simulated time on the serial epoch loop —
// the configuration the <1s wall-clock acceptance test
// (core.TestLargeMeshRunUnderOneSecond) locks in.
func BenchmarkSystemRun32(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Width, cfg.Height = 32, 32
		cfg.Horizon = 50 * sim.Millisecond
		sys, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(50*float64(b.N)/b.Elapsed().Seconds(), "sim-ms/s")
}

// BenchmarkNoCStep measures flit-level router cycles per second on an
// 8x8 mesh in the exact shape of the per-epoch co-simulation loop:
// inject, step, release delivered packets back to the freelist. The
// offered load (0.15 flits/node/cycle) sits below this mesh's
// saturation point so the network genuinely reaches steady state —
// at saturating loads the queues deepen without bound and no
// allocation pin can hold. Steady state is alloc-free (pinned by
// noc.TestStepSteadyStateZeroAlloc).
func BenchmarkNoCStep(b *testing.B) {
	net, err := noc.NewNetwork(noc.DefaultConfig(8, 8))
	if err != nil {
		b.Fatal(err)
	}
	gen, err := noc.NewGenerator(net, noc.Uniform,
		sim.NewRNG(1).Stream("bench"), 0.15, 4)
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

// BenchmarkPublicAPI exercises the façade the README quickstart shows.
func BenchmarkPublicAPI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Horizon = 20 * sim.Millisecond
		sys, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		if rep.TasksCompleted == 0 {
			b.Fatal("no work done")
		}
	}
}

func BenchmarkE11NoCValidation(b *testing.B) { benchExperiment(b, "E11") }

func BenchmarkE12MixedCriticality(b *testing.B) { benchExperiment(b, "E12") }

func BenchmarkE13WearLeveling(b *testing.B) { benchExperiment(b, "E13") }

func BenchmarkE14TestIntensity(b *testing.B)  { benchExperiment(b, "E14") }
func BenchmarkE15GovernorPolicy(b *testing.B) { benchExperiment(b, "E15") }

func BenchmarkE16IntervalModel(b *testing.B) { benchExperiment(b, "E16") }

func BenchmarkE17MemoryBottleneck(b *testing.B) { benchExperiment(b, "E17") }

func BenchmarkE18Segmentation(b *testing.B) { benchExperiment(b, "E18") }

func BenchmarkE19LargeMesh(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkBatchRunner measures the intra-experiment worker pool on a
// real cell sweep (E5's five mappers in quick mode): workers=1 runs the
// cells in sequence, workers=NumCPU fans them out. The ratio of the two
// is the wall-clock speedup the -workers flag buys; the outputs are
// asserted identical elsewhere (expt.TestE1GoldenAcrossWorkerCounts).
func BenchmarkBatchRunner(b *testing.B) {
	counts := []int{1, runtime.NumCPU()}
	if counts[1] == 1 {
		counts = counts[:1] // single-CPU machine: nothing to compare
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			runner := &expt.Runner{Quick: true, Workers: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run("E5"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchMapOverhead isolates the pool's per-cell scheduling
// cost with trivial cells (no simulation), so regressions in the batch
// machinery itself are visible.
func BenchmarkBatchMapOverhead(b *testing.B) {
	ctx := context.Background()
	opts := batch.Options{Workers: runtime.NumCPU()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := batch.Map(ctx, opts, 256,
			func(_ context.Context, j int) (int, error) { return j, nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(256*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}
