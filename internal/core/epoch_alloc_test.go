package core

import (
	"testing"

	"potsim/internal/sim"
	"potsim/internal/workload"
)

// sterileEpochConfig is a configuration whose steady-state epoch does no
// retained-state work: no power trace rows, no event log, and a test
// thermal guard so cold that no SBST launch is ever admitted (launching
// allocates an execution context by design).
func sterileEpochConfig() Config {
	cfg := DefaultConfig()
	cfg.Horizon = 200 * sim.Millisecond
	cfg.TraceEvery = 0
	cfg.SchedOptions.MaxTestTempK = 1
	return cfg
}

// TestEpochZeroAllocSteadyState pins the per-epoch control loop —
// integration, invariant checks, power control, scheduling — to zero
// allocations once the system's scratch buffers are warm. This is the
// repo's allocation-regression tripwire for internal/core. The subtest
// is the serial path, named "shards=0" as when the loop could also be
// sharded; it is now the only path.
func TestEpochZeroAllocSteadyState(t *testing.T) {
	t.Run("shards=0", func(t *testing.T) {
		s, err := New(sterileEpochConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := s.StepEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := s.StepEpoch(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state epoch allocates %.1f per tick, want 0", allocs)
		}
	})
}

// BenchmarkTaskFire measures first-iteration delivery: the producer task
// notifying every successor through the transaction-level NoC model.
func BenchmarkTaskFire(b *testing.B) {
	s, err := New(sterileEpochConfig())
	if err != nil {
		b.Fatal(err)
	}
	g := workload.PIP()
	if err := g.Validate(); err != nil { // fills the successor cache, as the arrival path does
		b.Fatal(err)
	}
	s.enqueue(&appRun{seq: 0, graph: g, arrivedAt: 0})
	if err := s.StepEpoch(); err != nil {
		b.Fatal(err)
	}
	if len(s.pending) != 0 {
		b.Fatal("app was not mapped")
	}
	// Pick the task with the most successors as the producer under test.
	var tr *taskRun
	for id := range s.cores {
		cand := s.cores[id].task
		if cand != nil && (tr == nil || len(cand.task.CommFlits) > len(tr.task.CommFlits)) {
			tr = cand
		}
	}
	if tr == nil || len(tr.task.CommFlits) == 0 {
		b.Fatal("no mapped task with successors")
	}
	now := s.lastEpochAt
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.iterFired = false
		s.fireFirstIteration(tr, now)
	}
}
