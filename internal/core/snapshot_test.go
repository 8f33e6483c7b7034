package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"potsim/internal/checkpoint"
	"potsim/internal/sbst"
	"potsim/internal/sim"
	"potsim/internal/workload"
)

// resumeConfig exercises the stateful subsystems a checkpoint must carry:
// faults with segmented resumable tests, the memory model, and the event
// log, over enough epochs that kills land mid-application.
func resumeConfig() Config {
	cfg := DefaultConfig()
	cfg.Horizon = 20 * sim.Millisecond
	cfg.EnableFaults = true
	cfg.AbortPolicy = sbst.ResumePhase
	cfg.TestSegmentCycles = 20000
	cfg.EventLogCapacity = 128
	return cfg
}

// errSimCrash stands in for a SIGKILL: the run dies right after a
// checkpoint was durably written.
var errSimCrash = errors.New("simulated crash")

// runKilledAt runs cfg with per-epoch checkpoints and kills the run at
// the given epoch, returning the path of the surviving snapshot file.
func runKilledAt(t *testing.T, cfg Config, killEpoch int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sys.ckpt")
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.CheckpointEvery(1, func(snap *Snapshot) error {
		if err := checkpoint.Save(path, SnapshotKind, SnapshotVersion, snap); err != nil {
			return err
		}
		if snap.Counters.TotalEpochs >= killEpoch {
			return errSimCrash
		}
		return nil
	})
	if _, err := sys.Run(); !errors.Is(err, errSimCrash) {
		t.Fatalf("killed run returned %v, want simulated crash", err)
	}
	return path
}

// resumeFrom loads a snapshot file into a fresh system and runs it to
// completion.
func resumeFrom(t *testing.T, cfg Config, path string) *Report {
	t.Helper()
	var snap Snapshot
	if err := checkpoint.Load(path, SnapshotKind, SnapshotVersion, &snap); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	blob, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestKillAtRandomEpochResumeByteIdentical(t *testing.T) {
	cfg := resumeConfig()
	golden := reportBytes(t, mustRun(t, cfg))

	epochs := int64(cfg.Horizon / cfg.Epoch)
	rng := rand.New(rand.NewSource(7))
	kills := []int64{1, epochs - 1}
	for i := 0; i < 2; i++ {
		kills = append(kills, 2+rng.Int63n(epochs-3))
	}
	for _, kill := range kills {
		path := runKilledAt(t, cfg, kill)
		rep := resumeFrom(t, cfg, path)
		if got := reportBytes(t, rep); !bytes.Equal(got, golden) {
			t.Fatalf("kill at epoch %d: resumed report differs from uninterrupted run\nresumed: %.400s\ngolden:  %.400s",
				kill, got, golden)
		}
	}
}

func TestRequestStopFlushesFinalSnapshotAndResumes(t *testing.T) {
	cfg := resumeConfig()
	golden := reportBytes(t, mustRun(t, cfg))

	path := filepath.Join(t.TempDir(), "sys.ckpt")
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No periodic cadence: the sink exists only for the stop-flush.
	sys.CheckpointEvery(0, func(snap *Snapshot) error {
		return checkpoint.Save(path, SnapshotKind, SnapshotVersion, snap)
	})
	sys.RequestStop()
	if _, err := sys.Run(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("stopped run returned %v, want ErrInterrupted", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("final snapshot not flushed: %v", err)
	}
	rep := resumeFrom(t, cfg, path)
	if got := reportBytes(t, rep); !bytes.Equal(got, golden) {
		t.Fatal("resume after RequestStop differs from uninterrupted run")
	}
}

func TestSetContextCancelsRun(t *testing.T) {
	cfg := resumeConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys.SetContext(ctx)
	if _, err := sys.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

func TestArrivalOnEpochBoundaryTieSurvivesResume(t *testing.T) {
	// An arrival landing exactly on an epoch tick is the order-ambiguous
	// case; Run must admit it before that epoch in fresh and resumed runs
	// alike.
	lib := workload.Library()
	entries := []workload.TraceEntry{
		{AtNs: int64(100 * sim.Microsecond), Graph: lib[0]},
		{AtNs: int64(300 * sim.Microsecond), Graph: lib[1%len(lib)]}, // exactly on tick 3
		{AtNs: int64(1250 * sim.Microsecond), Graph: lib[2%len(lib)]},
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(f, entries); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Horizon = 5 * sim.Millisecond
	cfg.TracePath = tracePath
	golden := reportBytes(t, mustRun(t, cfg))
	for _, kill := range []int64{2, 3} { // before and at the boundary epoch
		path := runKilledAt(t, cfg, kill)
		rep := resumeFrom(t, cfg, path)
		if got := reportBytes(t, rep); !bytes.Equal(got, golden) {
			t.Fatalf("kill at epoch %d around boundary arrival: resumed run diverged", kill)
		}
	}
}

func TestSnapshotWithRetiredKeysResumes(t *testing.T) {
	// Snapshots written before Run became a plain epoch loop carry the
	// event engine's clock and counters under "engine", and the capper's
	// configured budget under "capper.tdp". Decoding ignores both keys,
	// so SnapshotVersion stays 1 and such a snapshot still resumes to
	// the uninterrupted run's bytes.
	cfg := resumeConfig()
	golden := reportBytes(t, mustRun(t, cfg))

	var snap Snapshot
	if err := checkpoint.Load(runKilledAt(t, cfg, 7), SnapshotKind, SnapshotVersion, &snap); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	var old map[string]json.RawMessage
	if err := json.Unmarshal(blob, &old); err != nil {
		t.Fatal(err)
	}
	// The engine had fired every admitted arrival and every tick, and
	// had scheduled one more arrival.
	fired := int64(snap.Counters.Arrived) + snap.Counters.TotalEpochs
	old["engine"] = json.RawMessage(fmt.Sprintf(`{"now":%d,"seq":%d,"fired":%d}`, snap.LastEpochAt, fired+1, fired))
	var capper map[string]json.RawMessage
	if err := json.Unmarshal(old["capper"], &capper); err != nil {
		t.Fatal(err)
	}
	capper["tdp"] = json.RawMessage(strconv.FormatFloat(cfg.TDP(), 'g', -1, 64))
	if old["capper"], err = json.Marshal(capper); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "old.ckpt")
	if err := checkpoint.Save(path, SnapshotKind, SnapshotVersion, old); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"engine":{"now":`)) || !bytes.Contains(raw, []byte(`"tdp":`)) {
		t.Fatal("rewritten snapshot lacks the retired keys")
	}
	if got := reportBytes(t, resumeFrom(t, cfg, path)); !bytes.Equal(got, golden) {
		t.Fatal("snapshot with retired keys resumed to a different report")
	}
}

func TestRestoreRejectsCorruptedAndMismatchedSnapshots(t *testing.T) {
	cfg := resumeConfig()
	path := runKilledAt(t, cfg, 5)

	// Corruption: flip one payload byte; the checksum must catch it.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(blob, []byte(`"last_epoch_at"`), []byte(`"lAst_epoch_at"`), 1)
	if bytes.Equal(bad, blob) {
		t.Fatal("corruption probe found nothing to flip")
	}
	badPath := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := checkpoint.Load(badPath, SnapshotKind, SnapshotVersion, &snap); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("corrupted snapshot loaded: %v", err)
	}

	// Version skew: a future layout must be rejected, not reinterpreted.
	if err := checkpoint.Load(path, SnapshotKind, SnapshotVersion+1, &snap); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("version mismatch not detected: %v", err)
	}

	// Config drift: same snapshot, different simulation parameters.
	if err := checkpoint.Load(path, SnapshotKind, SnapshotVersion, &snap); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 99
	sys, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Restore(&snap); err == nil || !bytes.Contains([]byte(err.Error()), []byte("different configuration")) {
		t.Fatalf("config mismatch accepted or undescriptive: %v", err)
	}

	// A test off its level's operating point: the epoch loop prices test
	// power by level, so the point must be the table's.
	path = runKilledAt(t, cfg, 166) // tests are in flight over epochs 165-171
	for _, edit := range []func(*sbst.ExecState){
		func(st *sbst.ExecState) { st.Point.FreqHz /= 2 },
		func(st *sbst.ExecState) { st.Level = 99 },
	} {
		if err := checkpoint.Load(path, SnapshotKind, SnapshotVersion, &snap); err != nil {
			t.Fatal(err)
		}
		id := 0
		for id < len(snap.Cores) && snap.Cores[id].Test == nil {
			id++
		}
		if id == len(snap.Cores) {
			t.Fatal("no test in flight at the snapshot")
		}
		edit(snap.Cores[id].Test)
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Restore(&snap); err == nil || !bytes.Contains([]byte(err.Error()), []byte("operating point")) {
			t.Fatalf("test off its level's operating point accepted or undescriptive: %v", err)
		}
	}
}

func TestRestoreRequiresFreshSystem(t *testing.T) {
	cfg := resumeConfig()
	path := runKilledAt(t, cfg, 5)
	var snap Snapshot
	if err := checkpoint.Load(path, SnapshotKind, SnapshotVersion, &snap); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Restore(&snap); err == nil {
		t.Fatal("Restore accepted a system that already ran")
	}
}

func TestSnapshotRejectsFlitMode(t *testing.T) {
	cfg := shortConfig()
	cfg.NoCMode = "flit"
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Snapshot(); err == nil {
		t.Fatal("flit-mode snapshot accepted")
	}
	if err := sys.Restore(&Snapshot{}); err == nil {
		t.Fatal("flit-mode restore accepted")
	}
}
