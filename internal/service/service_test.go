package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"potsim/internal/checkpoint"
	"potsim/internal/sim"
)

// simSpec builds a sim-job spec with the given horizon and seed; the
// rest of the configuration stays at defaults (8x8 mesh, 100us epochs).
func simSpec(horizon sim.Time, seed uint64) JobSpec {
	return JobSpec{
		Kind:   KindSim,
		Config: json.RawMessage(fmt.Sprintf(`{"Horizon": %d, "Seed": %d}`, int64(horizon), seed)),
	}
}

// waitState polls until the job reaches want or the deadline expires.
func waitState(t *testing.T, job *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := job.State(); st == want {
			return
		} else if st.terminal() {
			t.Fatalf("job %s settled as %q (err %q), want %q", job.ID, st, job.Status().Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %q, want %q", job.ID, job.State(), want)
}

// waitProgress polls until the job has integrated at least minEpochs.
func waitProgress(t *testing.T, job *Job, minEpochs int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if job.Status().Progress.Epochs >= minEpochs {
			return
		}
		if job.State().terminal() {
			t.Fatalf("job %s settled as %q before reaching %d epochs", job.ID, job.State(), minEpochs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %d epochs (at %d)", job.ID, minEpochs, job.Status().Progress.Epochs)
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// checkGoroutines retries until the goroutine count returns to the
// baseline; lingering goroutines after a drain are a leak.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSubmitRunResult(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)

	out, err := s.Submit(simSpec(20*sim.Millisecond, 7), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if out.Deduped || out.CacheHit {
		t.Fatalf("fresh submission reported deduped=%v cacheHit=%v", out.Deduped, out.CacheHit)
	}
	waitState(t, out.Job, StateDone)

	doc, ok := out.Job.Result()
	if !ok {
		t.Fatal("done job has no result")
	}
	var rd ResultDoc
	if err := json.Unmarshal(doc, &rd); err != nil {
		t.Fatalf("result is not a ResultDoc: %v", err)
	}
	if rd.Kind != KindSim || len(rd.Report) == 0 {
		t.Fatalf("unexpected result doc: kind=%q report=%d bytes", rd.Kind, len(rd.Report))
	}
	if rd.Fingerprint != out.Job.Fingerprint {
		t.Fatalf("result fingerprint %q != job fingerprint %q", rd.Fingerprint, out.Job.Fingerprint)
	}
	st := s.Stats()
	if st.Completed != 1 || st.Submitted != 1 {
		t.Fatalf("stats after one job: %+v", st)
	}
	// The job's snapshot file must not outlive its successful run.
	if _, err := os.Stat(filepath.Join(s.jobsDir(), out.Job.ID, "sim.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("sim.ckpt survived completion: %v", err)
	}
}

func TestCacheHitSameServerAndAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := simSpec(20*sim.Millisecond, 11)

	s1, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s1.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first.Job, StateDone)
	golden, _ := first.Job.Result()

	again, err := s1.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("second identical submission missed the cache")
	}
	if again.Job.ID == first.Job.ID {
		t.Fatal("cache hit reused the original job ID")
	}
	waitState(t, again.Job, StateDone)
	got, _ := again.Job.Result()
	if !bytes.Equal(golden, got) {
		t.Fatal("cached result differs from the computed one")
	}
	if st := s1.Stats(); st.CacheHits != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	drain(t, s1)

	// A fresh process on the same data dir serves from the durable cache.
	s2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	third, err := s2.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Fatal("restarted server missed the durable cache")
	}
	got2, _ := third.Job.Result()
	if !bytes.Equal(golden, got2) {
		t.Fatal("durable cached result differs from the computed one")
	}
}

// TestCacheIndexBacksHitsAcrossRestart starts a server on a data dir in
// the layout older daemons left: a finished job's job.json and
// result.json, plus a cache/ directory, here holding only a garbage
// file. The index is rebuilt from the job's result, so the resubmission
// is a hit with the original bytes and runs nothing; cache/ is neither
// read nor removed.
func TestCacheIndexBacksHitsAcrossRestart(t *testing.T) {
	spec := simSpec(20*sim.Millisecond, 17)
	ref, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ref.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first.Job, StateDone)
	golden, _ := first.Job.Result()
	drain(t, ref)

	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs", first.Job.ID)
	stale := filepath.Join(dir, "cache", first.Job.Fingerprint+".json")
	for _, d := range []string{jobDir, filepath.Dir(stale)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	rec := jobRecord{ID: first.Job.ID, Tenant: "anon", Fingerprint: first.Job.Fingerprint, Spec: spec}
	if err := checkpoint.Save(filepath.Join(jobDir, "job.json"), jobKind, jobVersion, &rec); err != nil {
		t.Fatal(err)
	}
	var doc ResultDoc
	if err := json.Unmarshal(golden, &doc); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Save(filepath.Join(jobDir, "result.json"), resultKind, resultVersion, &doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("an old cache/ must not fail startup: %v", err)
	}
	defer drain(t, s)
	again, err := s.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("resubmission on an old-layout data dir missed the cache")
	}
	got, _ := again.Job.Result()
	if !bytes.Equal(golden, got) {
		t.Fatal("hit differs from the job's result.json")
	}
	if st := s.Stats(); st.CacheHits != 1 || st.Completed != 0 {
		t.Fatalf("restarted server stats: %+v", st)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("the old cache/ entry was touched: %v", err)
	}
}

// TestCacheHitReadsNoFile deletes a finished job's result.json, the
// result's only durable copy, and resubmits in the same process: the hit
// still carries the computed bytes, so it reads nothing from disk. With
// no data dir the same in-memory index answers.
func TestCacheHitReadsNoFile(t *testing.T) {
	for _, dataDir := range []string{"", t.TempDir()} {
		s, err := New(Config{DataDir: dataDir})
		if err != nil {
			t.Fatal(err)
		}
		spec := simSpec(20*sim.Millisecond, 37)
		first, err := s.Submit(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, first.Job, StateDone)
		golden, _ := first.Job.Result()
		if dataDir != "" {
			if err := os.Remove(filepath.Join(s.jobsDir(), first.Job.ID, "result.json")); err != nil {
				t.Fatal(err)
			}
		}
		again, err := s.Submit(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit {
			t.Fatalf("data dir %q: resubmission missed the cache", dataDir)
		}
		got, _ := again.Job.Result()
		if !bytes.Equal(golden, got) {
			t.Fatalf("data dir %q: hit differs from the computed result", dataDir)
		}
		if st := s.Stats(); st.CacheHits != 1 || st.Completed != 1 {
			t.Fatalf("data dir %q: stats %+v", dataDir, st)
		}
		drain(t, s)
	}
}

// TestCacheIndexRebuildsFromJobResults checks that a restarted server
// rebuilds its fingerprint index from the finished jobs' result.json
// files alone: no cache/ directory is ever written, a corrupt
// cache-index/ directory left by an older daemon is ignored, every
// finished fingerprint is a hit, and an unseen spec misses and runs.
func TestCacheIndexRebuildsFromJobResults(t *testing.T) {
	dir := t.TempDir()
	specs := []JobSpec{simSpec(20*sim.Millisecond, 19), simSpec(20*sim.Millisecond, 23)}

	s1, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		out, err := s1.Submit(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, out.Job, StateDone)
	}
	drain(t, s1)
	if _, err := os.Stat(filepath.Join(dir, "cache")); !os.IsNotExist(err) {
		t.Fatalf("finished jobs wrote a cache/ directory: %v", err)
	}

	stale := filepath.Join(dir, "cache-index")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "000000-cache-index.seg"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("a stale cache-index/ must not fail startup: %v", err)
	}
	defer drain(t, s2)
	for i, spec := range specs {
		hit, err := s2.Submit(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		if !hit.CacheHit {
			t.Fatalf("spec %d: rebuilt index lost the finished result", i)
		}
	}
	fresh, err := s2.Submit(simSpec(20*sim.Millisecond, 29), "")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.CacheHit {
		t.Fatal("an unseen spec hit the cache")
	}
	waitState(t, fresh.Job, StateDone)
	if st := s2.Stats(); st.CacheHits != 2 || st.Completed != 1 {
		t.Fatalf("restarted server stats: %+v", st)
	}
}

func TestSingleFlightDedup(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)

	spec := simSpec(800*sim.Millisecond, 13)
	var outs [4]SubmitOutcome
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := s.Submit(spec, fmt.Sprintf("tenant%d", i))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	deduped := 0
	for _, out := range outs {
		if out.Job != outs[0].Job {
			t.Fatal("concurrent identical submissions got different jobs")
		}
		if out.Deduped {
			deduped++
		}
	}
	if deduped != 3 {
		t.Fatalf("want 3 deduped submissions, got %d", deduped)
	}
	waitState(t, outs[0].Job, StateDone)
	if st := s.Stats(); st.Completed != 1 || st.Deduped != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestOverloadRejectsWithoutLeaking(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(Config{
		DataDir:    t.TempDir(),
		JobWorkers: 1,
		QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Seed+horizon vary per job so no submission dedups or caches.
	long := func(seed uint64) JobSpec { return simSpec(5000*sim.Millisecond, seed) }
	first, err := s.Submit(long(1), "a")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first.Job, StateRunning) // occupies the only worker
	second, err := s.Submit(long(2), "b")
	if err != nil {
		t.Fatal(err)
	}

	// Queue depth 1 is now taken: everything else must bounce, fast,
	// with the sentinel — no buffering, no blocking.
	rejected := 0
	for seed := uint64(3); seed < 13; seed++ {
		_, err := s.Submit(long(seed), fmt.Sprintf("t%d", seed))
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("seed %d: want ErrQueueFull, got %v", seed, err)
		}
		rejected++
	}
	if st := s.Stats(); st.RejectedQueueFull != rejected || st.Queued != 1 || st.Running != 1 {
		t.Fatalf("stats under overload: %+v", st)
	}

	// Abort the running job promptly and drain; afterwards nothing of
	// the server — workers, watchdogs, SSE plumbing — may linger.
	if err := s.Cancel(first.Job.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(second.Job.ID); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	checkGoroutines(t, before)
}

func TestTenantInFlightCap(t *testing.T) {
	s, err := New(Config{
		DataDir:      t.TempDir(),
		JobWorkers:   1,
		QueueDepth:   8,
		MaxPerTenant: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)

	first, err := s.Submit(simSpec(3000*sim.Millisecond, 21), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(simSpec(3000*sim.Millisecond, 22), "alice"); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("want ErrTenantLimit for alice, got %v", err)
	}
	other, err := s.Submit(simSpec(3000*sim.Millisecond, 23), "bob")
	if err != nil {
		t.Fatalf("bob must not be throttled by alice's cap: %v", err)
	}
	if st := s.Stats(); st.RejectedTenant != 1 || st.Tenants["alice"] != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Cancel frees the slot: alice can submit again.
	if err := s.Cancel(first.Job.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first.Job)
	if _, err := s.Submit(simSpec(3000*sim.Millisecond, 24), "alice"); err != nil {
		t.Fatalf("slot not freed after cancel: %v", err)
	}
	_ = other
	cancelAll(t, s)
}

func waitTerminal(t *testing.T, job *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if job.State().terminal() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never settled (state %q)", job.ID, job.State())
}

// cancelAll cancels every live job so the deferred drain is fast.
func cancelAll(t *testing.T, s *Server) {
	t.Helper()
	for _, st := range s.Jobs() {
		if !st.State.terminal() {
			if err := s.Cancel(st.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCancelRunningJobWritesMarker(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)

	out, err := s.Submit(simSpec(5000*sim.Millisecond, 31), "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, out.Job, StateRunning)
	if err := s.Cancel(out.Job.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, out.Job)
	if st := out.Job.State(); st != StateCanceled {
		t.Fatalf("state after cancel: %q", st)
	}
	if _, err := os.Stat(filepath.Join(s.jobsDir(), out.Job.ID, "canceled.json")); err != nil {
		t.Fatalf("canceled marker missing: %v", err)
	}
	// A restart must not resurrect a canceled job.
	drain(t, s)
	s2, err := New(Config{DataDir: s.cfg.DataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	j2, ok := s2.Job(out.Job.ID)
	if !ok || j2.State() != StateCanceled {
		t.Fatalf("canceled job after restart: found=%v state=%v", ok, j2.State())
	}
	if st := s2.Stats(); st.Recovered != 0 {
		t.Fatalf("canceled job was re-enqueued: %+v", st)
	}
}

// TestDrainCheckpointsAndRestartResumesByteIdentical is the service
// layer's crash-tolerance contract: stop a server mid-job, restart on
// the same data directory, and the finished result is byte-identical
// to a never-interrupted run of the same submission.
func TestDrainCheckpointsAndRestartResumesByteIdentical(t *testing.T) {
	spec := simSpec(1500*sim.Millisecond, 42)

	// Reference: uninterrupted run in a separate data dir.
	ref, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	refOut, err := ref.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, refOut.Job, StateDone)
	golden, _ := refOut.Job.Result()
	drain(t, ref)

	// Interrupted run: drain mid-job...
	dir := t.TempDir()
	s1, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s1.Submit(spec, "carol")
	if err != nil {
		t.Fatal(err)
	}
	waitProgress(t, out.Job, 2000) // well past one progress tick, far from done
	drain(t, s1)
	if st := out.Job.State(); st != StateInterrupted {
		t.Fatalf("state after drain: %q (a 15000-epoch job should not finish in the drain window)", st)
	}
	if st := s1.Stats(); st.Interrupted != 1 {
		t.Fatalf("stats after drain: %+v", st)
	}

	// ...restart on the same directory: the job is re-enqueued, resumes
	// from its drain snapshot, and finishes with the identical bytes.
	s2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	j2, ok := s2.Job(out.Job.ID)
	if !ok {
		t.Fatal("interrupted job not recovered")
	}
	if st := s2.Stats(); st.Recovered != 1 {
		t.Fatalf("stats after restart: %+v", st)
	}
	waitState(t, j2, StateDone)
	resumed, _ := j2.Result()
	if !bytes.Equal(golden, resumed) {
		t.Fatalf("resumed result differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(resumed), len(golden))
	}
	if !j2.Status().Recovered {
		t.Fatal("recovered job not flagged as recovered")
	}
	// And the tenant slot survived recovery accounting.
	if st := s2.Stats(); st.Tenants["carol"] != 0 {
		t.Fatalf("tenant slot not freed after recovered completion: %+v", st)
	}
}

func TestSuiteJobRunsAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("suite jobs take seconds")
	}
	spec := JobSpec{Kind: KindSuite, Experiment: "E2", Quick: true}

	ref, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	refOut, err := ref.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, refOut.Job, StateDone)
	golden, _ := refOut.Job.Result()
	var rd ResultDoc
	if err := json.Unmarshal(golden, &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Kind != KindSuite || rd.Experiment != "E2" || rd.CSV == "" {
		t.Fatalf("suite result doc: kind=%q experiment=%q csv=%d bytes", rd.Kind, rd.Experiment, len(rd.CSV))
	}
	drain(t, ref)

	// Interrupt a suite run mid-flight and resume it after a restart.
	dir := t.TempDir()
	s1, err := New(Config{DataDir: dir, CheckpointEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s1.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, out.Job, StateRunning)
	time.Sleep(50 * time.Millisecond) // let some epochs integrate
	drain(t, s1)

	s2, err := New(Config{DataDir: dir, CheckpointEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s2)
	j2, ok := s2.Job(out.Job.ID)
	if !ok {
		t.Fatal("interrupted suite job not recovered")
	}
	waitState(t, j2, StateDone)
	resumed, _ := j2.Result()
	if !bytes.Equal(golden, resumed) {
		t.Fatal("resumed suite result differs from uninterrupted run")
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{}) // no DataDir: in-memory mode
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)

	cases := []JobSpec{
		{},                                   // no kind
		{Kind: "mystery"},                    // unknown kind
		{Kind: KindSuite, Experiment: "E99"}, // unknown experiment
		{Kind: KindSuite, Experiment: "E1", GuardPolicy: "yolo"},           // unknown policy
		{Kind: KindSim, Experiment: "E1"},                                  // mixed
		{Kind: KindSim, Config: json.RawMessage(`{"Bogus": 1}`)},           // unknown config key
		{Kind: KindSim, Config: json.RawMessage(`{"Width": -4}`)},          // invalid config
		{Kind: KindSuite, Experiment: "E1", Config: json.RawMessage(`{}`)}, // config on a suite
	}
	for i, spec := range cases {
		if _, err := s.Submit(spec, ""); err == nil {
			t.Errorf("case %d: invalid spec admitted: %+v", i, spec)
		}
	}
	if st := s.Stats(); st.RejectedInvalid != len(cases) || st.Submitted != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	if _, err := s.Submit(simSpec(20*sim.Millisecond, 1), ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}
	if !s.Draining() {
		t.Fatal("server not draining after Drain")
	}
}
