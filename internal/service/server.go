// Package service is the embeddable core of potsimd: a crash-tolerant
// job service that runs simulations and experiment suites from
// HTTP/JSON submissions. It provides bounded admission (explicit queue
// depth and per-tenant in-flight caps, rejected work is told to retry
// later rather than silently buffered), per-job watchdogs and panic
// containment via internal/batch, content-addressed results (a finished
// job's result answers every equal submission) with single-flight
// deduplication, per-epoch progress streaming over SSE,
// and drain-safe shutdown: on SIGTERM the server stops admitting,
// checkpoints running jobs through the internal/checkpoint machinery,
// and a restart on the same data directory resumes every unfinished job
// to a byte-identical result.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"potsim/internal/batch"
	"potsim/internal/checkpoint"
	"potsim/internal/core"
	"potsim/internal/expt"
	"potsim/internal/sim"
)

// Admission errors. The HTTP layer maps these to 429/503 with a
// Retry-After hint; everything else from Submit is a client error.
var (
	// ErrQueueFull rejects a submission because the bounded queue is at
	// capacity. The job was not admitted; retry after a backoff.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrTenantLimit rejects a submission because the tenant already has
	// its maximum number of jobs queued or running.
	ErrTenantLimit = errors.New("service: tenant in-flight limit reached")
	// ErrDraining rejects a submission because the server is shutting
	// down and no longer admits work.
	ErrDraining = errors.New("service: server is draining")
	// ErrUnknownJob is returned for job IDs the server has never seen.
	ErrUnknownJob = errors.New("service: unknown job")
)

// Persistence envelope kinds/versions (see internal/checkpoint): every
// durable record the daemon writes is checksummed and written
// atomically, so a crash mid-write can corrupt nothing and torn files
// are detected, not misread.
const (
	jobKind         = "potsimd-job"
	jobVersion      = 1
	resultKind      = "potsimd-result"
	resultVersion   = 1
	failedKind      = "potsimd-failed"
	failedVersion   = 1
	canceledKind    = "potsimd-canceled"
	canceledVersion = 1
)

// jobRecord is the durable identity of an admitted job. Its presence
// without a result/failed/canceled marker is what makes a restart
// re-enqueue the job.
type jobRecord struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant"`
	Fingerprint string  `json:"fingerprint"`
	Spec        JobSpec `json:"spec"`
}

type failedRecord struct {
	Error string `json:"error"`
}

type canceledRecord struct {
	Reason string `json:"reason"`
}

// Config configures a Server. The zero value is usable: every knob has
// a production-shaped default.
type Config struct {
	// DataDir roots all durable state (jobs/<id>/). Empty disables
	// durability: results answer equal submissions only until the
	// process exits. Tests and potbench use that; potsimd always sets it.
	DataDir string

	// QueueDepth bounds jobs admitted but not yet running; a full queue
	// rejects with ErrQueueFull instead of buffering without limit.
	// Default 16.
	QueueDepth int
	// JobWorkers is the number of jobs executed concurrently. Default 2.
	JobWorkers int
	// MaxPerTenant caps one tenant's queued+running jobs. Default 4;
	// negative disables the cap.
	MaxPerTenant int

	// CellWorkers bounds intra-suite cell parallelism (expt.Runner
	// Workers); <= 0 means GOMAXPROCS.
	CellWorkers int
	// CheckpointEvery is the snapshot cadence in epochs for running
	// jobs. 0 selects the default (200); negative disables periodic
	// snapshots (drain checkpoints still happen via RequestStop).
	CheckpointEvery int64
	// CellTimeout, when positive, is the per-attempt watchdog: whole sim
	// jobs and individual suite cells that overrun it fail with a
	// batch.TimeoutError.
	CellTimeout time.Duration
	// Retries is the batch retry budget; a retry starts at once.
	Retries int

	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.MaxPerTenant == 0 {
		c.MaxPerTenant = 4
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 200
	}
	if c.CheckpointEvery < 0 {
		c.CheckpointEvery = 0 // core: 0 = snapshot only on RequestStop
	}
}

// Stats is the server's counter snapshot, served by /v1/stats. All
// counters are monotone within one process lifetime except the gauges
// (Queued, Running, Draining).
type Stats struct {
	Queued     int  `json:"queued"`
	Running    int  `json:"running"`
	Draining   bool `json:"draining"`
	QueueDepth int  `json:"queueDepth"`
	JobWorkers int  `json:"jobWorkers"`

	Submitted   int `json:"submitted"`
	Deduped     int `json:"deduped"`
	CacheHits   int `json:"cacheHits"`
	Completed   int `json:"completed"`
	Failed      int `json:"failed"`
	Canceled    int `json:"canceled"`
	Interrupted int `json:"interrupted"`
	Recovered   int `json:"recovered"`

	RejectedQueueFull int `json:"rejectedQueueFull"`
	RejectedTenant    int `json:"rejectedTenant"`
	RejectedDraining  int `json:"rejectedDraining"`
	RejectedInvalid   int `json:"rejectedInvalid"`

	// GuardViolations accumulates over completed jobs' reports.
	GuardViolations int `json:"guardViolations"`

	Tenants map[string]int `json:"tenants,omitempty"`
}

// Server runs jobs. Create with New, stop with Drain.
type Server struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // job IDs in admission order
	inflight map[string]*Job // fingerprint -> queued/running job (single-flight)
	tenants  map[string]int  // tenant -> queued+running jobs
	seq      int
	queued   int
	running  int
	draining bool
	stats    Stats

	results map[string][]byte // fingerprint -> result doc of a finished job

	queue     chan *Job
	drainCh   chan struct{}
	drainOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a server, recovers every job found in cfg.DataDir (stale
// temp files are swept, finished jobs' results answer equal
// submissions, unfinished ones are re-enqueued in admission order), and
// starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	s := &Server{
		cfg:      cfg,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
		tenants:  make(map[string]int),
		results:  make(map[string][]byte),
		drainCh:  make(chan struct{}),
	}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(s.jobsDir(), 0o755); err != nil {
			return nil, fmt.Errorf("service: creating data dir: %w", err)
		}
	}
	recovered, err := s.recoverJobs()
	if err != nil {
		return nil, err
	}
	// The channel is sized so that sends under the admission invariant
	// (queued < QueueDepth, plus the recovered backlog) never block.
	s.queue = make(chan *Job, cfg.QueueDepth+len(recovered))
	for _, job := range recovered {
		s.queued++
		s.queue <- job
	}
	s.wg.Add(cfg.JobWorkers)
	for i := 0; i < cfg.JobWorkers; i++ {
		go s.worker()
	}
	return s, nil
}

// jobsDir holds one directory per admitted job. Anything else in the
// data dir, such as the cache/ or cache-index/ an older daemon wrote,
// is ignored.
func (s *Server) jobsDir() string { return filepath.Join(s.cfg.DataDir, "jobs") }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// recoverJobs scans the jobs directory and rebuilds in-memory state:
// finished jobs are reloaded and their results answer equal
// submissions, canceled/failed jobs keep their terminal state, and
// everything else — killed at whatever point — is re-enqueued to resume
// from its journal and snapshots.
func (s *Server) recoverJobs() ([]*Job, error) {
	if s.cfg.DataDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return nil, fmt.Errorf("service: scanning jobs dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	// Job IDs are zero-padded sequence numbers: lexical order is
	// admission order, so recovery re-enqueues in the original order.
	sort.Strings(names)

	var requeue []*Job
	for _, name := range names {
		dir := filepath.Join(s.jobsDir(), name)
		var rec jobRecord
		if err := checkpoint.Load(filepath.Join(dir, "job.json"), jobKind, jobVersion, &rec); err != nil {
			s.logf("recovery: skipping %s: %v", name, err)
			continue
		}
		job := &Job{
			ID:          rec.ID,
			Tenant:      rec.Tenant,
			Spec:        rec.Spec,
			Fingerprint: rec.Fingerprint,
			dir:         dir,
			broker:      newBroker(),
		}
		job.state = StateQueued
		if rec.Spec.Kind == KindSim {
			cfg, err := rec.Spec.SimConfig()
			if err != nil {
				s.logf("recovery: %s has an invalid config: %v", name, err)
				job.settle(StateFailed, nil, err.Error())
				s.adopt(job)
				continue
			}
			job.simCfg = cfg
		}
		if n := s.seqOf(rec.ID); n >= s.seq {
			s.seq = n + 1
		}

		var doc ResultDoc
		switch rerr := checkpoint.Load(filepath.Join(dir, "result.json"), resultKind, resultVersion, &doc); {
		case rerr == nil:
			blob, merr := json.Marshal(&doc)
			if merr != nil {
				return nil, merr
			}
			job.settle(StateDone, blob, "")
			s.stats.GuardViolations += doc.GuardViolations
			s.results[job.Fingerprint] = blob
			s.adopt(job)
			continue
		case !os.IsNotExist(rerr):
			s.logf("recovery: %s result unreadable: %v", name, rerr)
		}
		var frec failedRecord
		if err := checkpoint.Load(filepath.Join(dir, "failed.json"), failedKind, failedVersion, &frec); err == nil {
			job.settle(StateFailed, nil, frec.Error)
			s.adopt(job)
			continue
		}
		var crec canceledRecord
		if err := checkpoint.Load(filepath.Join(dir, "canceled.json"), canceledKind, canceledVersion, &crec); err == nil {
			job.settle(StateCanceled, nil, "")
			s.adopt(job)
			continue
		}

		// Unfinished: sweep temp droppings from interrupted atomic
		// writes, then put the job back in line.
		if removed, err := checkpoint.CleanTemps(dir); err == nil && len(removed) > 0 {
			s.logf("recovery: %s: removed stale temps %v", name, removed)
		}
		job.recovered = true
		s.adopt(job)
		s.inflight[job.Fingerprint] = job
		s.tenants[job.Tenant]++
		s.stats.Recovered++
		requeue = append(requeue, job)
	}
	return requeue, nil
}

// adopt registers a job in the maps. Only called before workers start
// or under s.mu.
func (s *Server) adopt(job *Job) {
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
}

func (s *Server) seqOf(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "j%06d-", &n); err != nil {
		return -1
	}
	return n
}

// SubmitOutcome reports how a submission was satisfied.
type SubmitOutcome struct {
	Job *Job
	// Deduped: an identical job was already queued or running; the
	// caller was attached to it instead of a new execution.
	Deduped bool
	// CacheHit: a finished job already holds the result; the returned
	// job was born done and shares its bytes.
	CacheHit bool
}

// Submit validates, fingerprints and admits a job. Identical in-flight
// work is deduplicated (single-flight), finished results are returned
// without execution or disk access, and overload is rejected with
// ErrQueueFull / ErrTenantLimit rather than buffered.
func (s *Server) Submit(spec JobSpec, tenant string) (SubmitOutcome, error) {
	if tenant == "" {
		tenant = "anon"
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		s.mu.Lock()
		s.stats.RejectedInvalid++
		s.mu.Unlock()
		return SubmitOutcome{}, err
	}

	s.mu.Lock()
	if s.draining {
		s.stats.RejectedDraining++
		s.mu.Unlock()
		return SubmitOutcome{}, ErrDraining
	}
	s.stats.Submitted++
	if j := s.inflight[fp]; j != nil {
		s.stats.Deduped++
		s.mu.Unlock()
		return SubmitOutcome{Job: j, Deduped: true}, nil
	}
	if doc, ok := s.results[fp]; ok {
		job := s.newCachedJobLocked(spec, tenant, fp, doc)
		s.stats.CacheHits++
		s.mu.Unlock()
		return SubmitOutcome{Job: job, CacheHit: true}, nil
	}
	if s.queued >= s.cfg.QueueDepth {
		s.stats.RejectedQueueFull++
		s.mu.Unlock()
		return SubmitOutcome{}, ErrQueueFull
	}
	if s.cfg.MaxPerTenant > 0 && s.tenants[tenant] >= s.cfg.MaxPerTenant {
		s.stats.RejectedTenant++
		s.mu.Unlock()
		return SubmitOutcome{}, fmt.Errorf("%w (%d in flight for %q)", ErrTenantLimit, s.tenants[tenant], tenant)
	}

	job := &Job{
		ID:          fmt.Sprintf("j%06d-%s", s.seq, fp[:8]),
		Tenant:      tenant,
		Spec:        spec,
		Fingerprint: fp,
		broker:      newBroker(),
	}
	job.state = StateQueued
	if spec.Kind == KindSim {
		job.simCfg, _ = spec.SimConfig() // validated by Fingerprint
	}
	if s.cfg.DataDir != "" {
		job.dir = filepath.Join(s.jobsDir(), job.ID)
	}
	s.seq++
	s.queued++
	s.tenants[tenant]++
	s.inflight[fp] = job
	s.adopt(job)
	s.mu.Unlock()

	if job.dir != "" {
		if err := s.persistJob(job); err != nil {
			// Roll the reservation back: the job never existed.
			s.mu.Lock()
			s.queued--
			s.tenants[tenant]--
			delete(s.inflight, fp)
			delete(s.jobs, job.ID)
			if n := len(s.order); n > 0 && s.order[n-1] == job.ID {
				s.order = s.order[:n-1]
			}
			s.stats.Submitted--
			s.mu.Unlock()
			return SubmitOutcome{}, err
		}
	}
	job.broker.publish(Event{Type: EventState, JobID: job.ID, State: StateQueued})
	s.queue <- job // never blocks: see channel sizing in New
	return SubmitOutcome{Job: job}, nil
}

func (s *Server) persistJob(job *Job) error {
	if err := os.MkdirAll(job.dir, 0o755); err != nil {
		return fmt.Errorf("service: creating job dir: %w", err)
	}
	rec := jobRecord{ID: job.ID, Tenant: job.Tenant, Fingerprint: job.Fingerprint, Spec: job.Spec}
	if err := checkpoint.Save(filepath.Join(job.dir, "job.json"), jobKind, jobVersion, &rec); err != nil {
		return fmt.Errorf("service: persisting job: %w", err)
	}
	return nil
}

// newCachedJobLocked materialises a cache hit as a job that was born
// done: it gets an ID and shows up in listings, but owns no directory
// and never touches the queue. It shares doc with the finished job;
// settled results are never written to. Called with s.mu held.
func (s *Server) newCachedJobLocked(spec JobSpec, tenant, fp string, doc []byte) *Job {
	job := &Job{
		ID:          fmt.Sprintf("j%06d-%s", s.seq, fp[:8]),
		Tenant:      tenant,
		Spec:        spec,
		Fingerprint: fp,
		broker:      newBroker(),
	}
	s.seq++
	job.state = StateQueued
	job.cached = true
	job.settle(StateDone, doc, "")
	s.adopt(job)
	return job
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all jobs in admission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// Cancel aborts a job on behalf of the user. Queued jobs settle
// immediately; running jobs are context-canceled and settle when the
// simulation notices (next epoch boundary).
func (s *Server) Cancel(id string) error {
	job, ok := s.Job(id)
	if !ok {
		return ErrUnknownJob
	}
	if job.requestCancel() == cancelSettledNow {
		// Settled here (was queued): persist the marker so a restart
		// does not resurrect it, and free its admission slots.
		s.writeCanceled(job)
		s.countSettled(StateCanceled, nil)
		s.release(job)
	}
	// Already terminal or signaled to a running worker: nothing more to
	// do here; cancel is idempotent and the worker owns the settle.
	return nil
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Queued = s.queued
	st.Running = s.running
	st.Draining = s.draining
	st.QueueDepth = s.cfg.QueueDepth
	st.JobWorkers = s.cfg.JobWorkers
	st.Tenants = make(map[string]int, len(s.tenants))
	for t, n := range s.tenants {
		if n > 0 {
			st.Tenants[t] = n
		}
	}
	return st
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission, asks every running job to checkpoint and stop,
// waits for the workers to finish, and settles still-queued jobs as
// interrupted (their durable state makes a restart re-enqueue them).
// Returns ctx.Err() if the deadline expires first — the caller decides
// whether to exit anyway; durable state is consistent at every point.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	live := make([]*Job, 0, len(s.jobs))
	for _, id := range s.order {
		if j := s.jobs[id]; !j.State().terminal() {
			live = append(live, j)
		}
	}
	s.mu.Unlock()
	s.drainOnce.Do(func() { close(s.drainCh) })
	for _, j := range live {
		j.requestSoftStop()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}

	// Workers are gone; anything not terminal was still queued. Its
	// job.json (and any snapshots) persist, so a restart resumes it.
	s.mu.Lock()
	var stranded []*Job
	for _, id := range s.order {
		if j := s.jobs[id]; !j.State().terminal() {
			stranded = append(stranded, j)
		}
	}
	s.mu.Unlock()
	for _, j := range stranded {
		j.settle(StateInterrupted, nil, "")
		s.countSettled(StateInterrupted, nil)
	}
	return nil
}

// worker pulls jobs until drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.drainCh:
			return
		case job := <-s.queue:
			s.mu.Lock()
			s.queued--
			s.mu.Unlock()
			select {
			case <-s.drainCh:
				// Draining: leave the job durable on disk; Drain settles
				// its in-memory state as interrupted.
				return
			default:
			}
			s.runJob(job)
		}
	}
}

// runJob executes one job with watchdog, retry and panic containment
// from internal/batch, then settles it. Every terminal state leaves the
// matching durable marker so restarts never redo settled work.
func (s *Server) runJob(job *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !job.setRunning(cancel) {
		// Canceled while queued; Cancel already settled and released it.
		return
	}
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()

	opts := batch.Options{}
	if job.Spec.Kind == KindSim {
		// Sim jobs are one attempt unit: the watchdog bounds the whole
		// run and a retry resumes from the latest snapshot.
		opts.CellTimeout = s.cfg.CellTimeout
		opts.Retries = s.cfg.Retries
	}
	doc, err := batch.Run(ctx, opts, func(ctx context.Context) (ResultDoc, error) {
		if job.Spec.Kind == KindSim {
			return s.runSim(ctx, job)
		}
		return s.runSuite(ctx, job)
	})

	switch {
	case err == nil:
		blob, merr := json.Marshal(&doc)
		if merr != nil {
			s.settleJob(job, StateFailed, nil, merr)
			return
		}
		s.persistResult(job, &doc, blob)
		job.settle(StateDone, blob, "")
		s.countSettled(StateDone, &doc)
		s.release(job)
	case errors.Is(err, core.ErrInterrupted) ||
		(job.wasStopRequested() && !job.wasUserCanceled()):
		// Drain got here first: state is checkpointed, no marker is
		// written, a restart resumes the job.
		job.settle(StateInterrupted, nil, "")
		s.countSettled(StateInterrupted, nil)
		s.release(job)
	case job.wasUserCanceled():
		s.writeCanceled(job)
		job.settle(StateCanceled, nil, "")
		s.countSettled(StateCanceled, nil)
		s.release(job)
	default:
		s.settleJob(job, StateFailed, nil, err)
	}
}

func (s *Server) settleJob(job *Job, state State, doc *ResultDoc, err error) {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	if state == StateFailed && job.dir != "" {
		rec := failedRecord{Error: msg}
		if serr := checkpoint.Save(filepath.Join(job.dir, "failed.json"), failedKind, failedVersion, &rec); serr != nil {
			s.logf("persisting failure of %s: %v", job.ID, serr)
		}
	}
	job.settle(state, nil, msg)
	s.countSettled(state, doc)
	s.release(job)
}

func (s *Server) writeCanceled(job *Job) {
	if job.dir == "" {
		return
	}
	rec := canceledRecord{Reason: "user"}
	if err := checkpoint.Save(filepath.Join(job.dir, "canceled.json"), canceledKind, canceledVersion, &rec); err != nil {
		s.logf("persisting cancel of %s: %v", job.ID, err)
	}
}

// persistResult writes the job's result.json, its only durable copy,
// and then lets blob, the marshalled doc, answer equal submissions.
func (s *Server) persistResult(job *Job, doc *ResultDoc, blob []byte) {
	if job.dir != "" {
		if err := checkpoint.Save(filepath.Join(job.dir, "result.json"), resultKind, resultVersion, doc); err != nil {
			s.logf("persisting result of %s: %v", job.ID, err)
		}
	}
	s.mu.Lock()
	s.results[job.Fingerprint] = blob
	s.mu.Unlock()
}

func (s *Server) countSettled(state State, doc *ResultDoc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch state {
	case StateDone:
		s.stats.Completed++
		if doc != nil {
			s.stats.GuardViolations += doc.GuardViolations
		}
	case StateFailed:
		s.stats.Failed++
	case StateCanceled:
		s.stats.Canceled++
	case StateInterrupted:
		s.stats.Interrupted++
	}
}

// release frees a job's admission slots (tenant count, single-flight
// registration) exactly once.
func (s *Server) release(job *Job) {
	job.releaseOnce.Do(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.inflight[job.Fingerprint] == job {
			delete(s.inflight, job.Fingerprint)
		}
		if s.tenants[job.Tenant] > 0 {
			s.tenants[job.Tenant]--
		}
	})
}

// progressEvery throttles per-epoch progress events: full epoch
// granularity is noise at SSE timescales, and the hook runs on the
// simulation goroutine.
const progressEvery = 32

// runSim executes a sim job through expt.ExecuteCell, resuming from its
// snapshot when one survives and checkpointing as it goes.
func (s *Server) runSim(ctx context.Context, job *Job) (ResultDoc, error) {
	opts := expt.CellOptions{
		CheckpointEvery: s.cfg.CheckpointEvery,
		Resume:          true,
		Attach: func(sys *core.System) {
			sys.OnEpoch(func(epoch int64, now sim.Time) {
				if epoch%progressEvery == 0 {
					job.publishProgress(epoch, now.Millis())
				}
			})
			job.setHooks(sys.RequestStop, sys.GuardExport)
			if job.wasStopRequested() {
				sys.RequestStop() // drain won the race with hook installation
			}
		},
	}
	if job.dir != "" {
		opts.CheckpointPath = filepath.Join(job.dir, "sim.ckpt")
	}
	rep, err := expt.ExecuteCell(ctx, job.simCfg, opts)
	if err != nil {
		return ResultDoc{}, err
	}
	blob, err := rep.JSON()
	if err != nil {
		return ResultDoc{}, err
	}
	return ResultDoc{
		Kind:            KindSim,
		Fingerprint:     job.Fingerprint,
		Report:          blob,
		GuardViolations: rep.GuardViolations,
	}, nil
}

// runSuite executes a suite job through expt.Runner with the job
// directory as its durable checkpoint root: the cell journal plus
// periodic snapshots make a killed suite resume without redoing
// finished cells.
func (s *Server) runSuite(ctx context.Context, job *Job) (ResultDoc, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &expt.Runner{
		Ctx:             sctx,
		Quick:           job.Spec.Quick,
		BaseSeed:        job.Spec.BaseSeed,
		GuardPolicy:     strings.ToLower(job.Spec.GuardPolicy),
		Workers:         s.cfg.CellWorkers,
		CellTimeout:     s.cfg.CellTimeout,
		Retries:         s.cfg.Retries,
		CheckpointDir:   job.dir,
		Resume:          true,
		CheckpointEvery: s.cfg.CheckpointEvery,
		Progress: func(id string, done, total int) {
			job.publishCells(done, total)
		},
		OnCellEpoch: func(id string, cell int, epoch int64, now sim.Time) {
			if epoch%progressEvery == 0 {
				job.publishCellEpoch(cell, epoch, now.Millis())
			}
		},
	}
	if job.dir == "" {
		r.CheckpointDir = ""
		r.Resume = false
	}
	// A suite's graceful stop is context cancellation: the journal and
	// per-cell snapshots already persist all completed progress.
	job.setHooks(cancel, nil)
	if job.wasStopRequested() {
		cancel()
	}
	res, err := r.Run(strings.TrimSpace(job.Spec.Experiment))
	if err != nil {
		return ResultDoc{}, err
	}
	doc := ResultDoc{
		Kind:        KindSuite,
		Fingerprint: job.Fingerprint,
		Experiment:  res.ID,
		Title:       res.Title,
		Text:        res.Render(),
	}
	if res.Table != nil {
		doc.CSV = res.Table.CSV()
	}
	return doc, nil
}
