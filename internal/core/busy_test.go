package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"potsim/internal/guard"
	"potsim/internal/mapping"
	"potsim/internal/sbst"
	"potsim/internal/sim"
)

// recountBusy counts the running and testing cores the slow way.
func recountBusy(s *System) int {
	n := 0
	for id := range s.cores {
		if st := s.cores[id].state; st == coreRunning || st == coreTesting {
			n++
		}
	}
	return n
}

// wantGrid is the grid view a snapshot must carry: s's live view with
// every core's criticality recomputed at the last epoch boundary, as
// refreshGridView computed it for every core before it skipped busy
// ones.
func wantGrid(s *System) []mapping.CoreView {
	want := append([]mapping.CoreView(nil), s.grid.Cores...)
	for id := range want {
		want[id].Criticality = 0
		if s.pots != nil {
			want[id].Criticality = s.pots.Criticality(id, s.lastEpochAt, s.ager.Stress(id), s.ager.Utilization(id))
		}
	}
	return want
}

// sameView reports whether two core views are the same bits.
func sameView(a, b mapping.CoreView) bool {
	return a.Free == b.Free &&
		math.Float64bits(a.Criticality) == math.Float64bits(b.Criticality) &&
		math.Float64bits(a.Utilization) == math.Float64bits(b.Utilization)
}

// oracleRun is one randomized short run's settings.
type oracleRun struct {
	cfg       Config
	every     int64 // checkpoint period in epochs (txn mode)
	restoreAt int64 // epoch whose snapshot a fresh system resumes; 0 = none
}

func newOracleRun(seed int64) oracleRun {
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.Horizon = 40 * sim.Millisecond
	cfg.Seed = uint64(seed)
	cfg.TestPolicy = []TestPolicyKind{PolicyPOTS, PolicyNaive, PolicyPeriodic, PolicyNoTest}[seed%4]
	cfg.MapperName = []string{"TUM", "NN", "FF", "CoNA"}[rng.Intn(4)]
	cfg.MeanInterarrival = sim.Time(1+rng.Intn(3)) * sim.Millisecond // arrivals preempt tests
	if rng.Intn(2) == 0 {
		cfg.EnableFaults = true
		cfg.Faults.BaseRatePerSec = 20
		cfg.DecommissionOnDetect = true
	}
	if rng.Intn(2) == 0 {
		cfg.AbortPolicy = sbst.ResumePhase
		cfg.TestSegmentCycles = 20000
	}
	r := oracleRun{cfg: cfg, every: int64(1 + rng.Intn(40))}
	if rng.Intn(6) == 0 {
		// Snapshot refuses flit runs, so they take no checkpoints; the
		// co-simulated network steps every router cycle, hence the
		// shorter horizon.
		r.cfg.NoCMode = "flit"
		r.cfg.Horizon = 8 * sim.Millisecond
	} else if rng.Intn(2) == 0 {
		r.restoreAt = int64(50 + rng.Intn(300))
	}
	return r
}

var errRestoreHere = errors.New("restore here")

// TestBusyCountAndGridMatchRecount runs randomized short runs of every
// test policy, with faults and decommissioning, ResumePhase, flit mode
// and a resume mid-run. After every epoch the busy count must equal a
// recount and every free core's grid criticality must be current; every
// checkpoint's grid must be the live view with every criticality
// recomputed, the bytes the grid held when each epoch refreshed all
// cores.
func TestBusyCountAndGridMatchRecount(t *testing.T) {
	var seen struct{ decommissioned, aborted, restored, flit, testing int }
	for seed := int64(0); seed < 24; seed++ {
		r := newOracleRun(seed)
		check := func(s *System, when string) {
			t.Helper()
			if got, want := s.busyCores, recountBusy(s); got != want {
				t.Fatalf("seed %d %s at %v: busy count %d, recount %d", seed, when, s.lastEpochAt, got, want)
			}
			want := wantGrid(s)
			for id, cv := range s.grid.Cores {
				if cv.Free && !sameView(cv, want[id]) {
					t.Fatalf("seed %d %s at %v: free core %d grid view %+v, want %+v", seed, when, s.lastEpochAt, id, cv, want[id])
				}
			}
		}
		var resumeFrom *Snapshot
		arm := func(s *System) {
			s.OnEpoch(func(int64, sim.Time) { check(s, "epoch") })
			if r.cfg.NoCMode == "flit" {
				return
			}
			s.CheckpointEvery(r.every, func(snap *Snapshot) error {
				want := wantGrid(s)
				for id, cv := range snap.Grid.Cores {
					if !sameView(cv, want[id]) {
						t.Fatalf("seed %d snapshot at %v: core %d grid view %+v, want %+v", seed, s.lastEpochAt, id, cv, want[id])
					}
				}
				if r.restoreAt > 0 && resumeFrom == nil && snap.Counters.TotalEpochs >= r.restoreAt {
					resumeFrom = snap
					return errRestoreHere
				}
				return nil
			})
		}
		sys, err := New(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		arm(sys)
		rep, err := sys.Run()
		if errors.Is(err, errRestoreHere) {
			seen.restored++
			sys, err = New(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Restore(resumeFrom); err != nil {
				t.Fatal(err)
			}
			check(sys, "restore")
			arm(sys)
			rep, err = sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			if whole := mustRun(t, r.cfg); !bytes.Equal(reportBytes(t, rep), reportBytes(t, whole)) {
				t.Fatalf("seed %d: run resumed at epoch %d reports differently from the whole run", seed, resumeFrom.Counters.TotalEpochs)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		if r.cfg.NoCMode == "flit" {
			seen.flit++
		}
		seen.decommissioned += len(rep.DecommissionedCores)
		seen.aborted += rep.TestsAborted
		seen.testing += rep.TestsStarted
	}
	t.Logf("decommissions %d, aborted tests %d of %d started, resumed runs %d, flit runs %d",
		seen.decommissioned, seen.aborted, seen.testing, seen.restored, seen.flit)
	if seen.decommissioned == 0 || seen.aborted == 0 || seen.restored == 0 || seen.flit == 0 {
		t.Fatalf("the runs missed a transition: %+v", seen)
	}
}

// TestGuardCatchesBusyCountDrift corrupts the busy count: the per-epoch
// recount must flag it as an occupancy violation under guard=error.
func TestGuardCatchesBusyCountDrift(t *testing.T) {
	cfg := shortConfig()
	cfg.GuardPolicy = "error"
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := sys.StepEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	sys.busyCores++
	err = sys.StepEpoch()
	var verr *guard.ViolationError
	if !errors.As(err, &verr) || verr.V.Invariant != "mapper.occupancy" {
		t.Fatalf("corrupted busy count: StepEpoch returned %v, want a mapper.occupancy violation", err)
	}
}
