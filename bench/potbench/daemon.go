package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"potsim/internal/core"
	"potsim/internal/service"
	"potsim/internal/sim"
)

// Daemon load: an open loop of independent users, so a slow server
// faces the same arrivals and its backlog can grow. The rate stays
// below the knee measured on a 2-CPU host, where the generator starts
// running late and admission starts refusing work.
//
// Every fresh job simulates the same horizon: the executed jobs' median
// latency is then one job's service time plus queueing, instead of
// whichever job length the median happens to fall on.
const (
	daemonRate      = 12.0 // submissions per second
	daemonFresh     = 0.6  // share of submissions with a new spec
	daemonHorizonMS = 100  // simulated length of every job
	daemonTenants   = 4
	pollEvery       = 5 * time.Millisecond
	maxLateness     = 50 * time.Millisecond
	daemonSettleCap = 60 * time.Second
)

// rng is a splitmix64 stream: the benchmark's inputs depend on the seed
// alone, never on the program's own random streams.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (g *rng) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float is uniform in [0, 1); signed is uniform in [-1, 1).
func (g *rng) float() float64  { return float64(g.next()>>11) / (1 << 53) }
func (g *rng) signed() float64 { return 2*g.float() - 1 }
func (g *rng) intn(n int) int  { return int(g.next() % uint64(n)) }

// submission is one planned POST of the daemon workload.
type submission struct {
	due     time.Duration
	tenant  string
	body    []byte
	horizon sim.Time
	ref     int // -1 for a fresh spec, else the index it resubmits
}

// daemonPlan generates a run's submissions: round(rate x window) due
// times drawn uniformly over the window (a Poisson process conditioned
// on its count, so every seed offers the same load), exactly the fresh
// share of new sim specs with unique seeds, and resubmissions of an
// earlier fresh spec chosen at random.
func daemonPlan(seed uint64, window time.Duration, rate float64, horizonMS int) []submission {
	g := newRNG(seed)
	n := max(1, int(math.Round(rate*window.Seconds())))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(g.float() * float64(window))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })

	fresh := make([]bool, n)
	nFresh := max(1, int(math.Round(daemonFresh*float64(n))))
	for i := 0; i < nFresh; i++ {
		fresh[i] = true
	}
	for i := n - 1; i > 1; i-- { // keep the first submission fresh
		j := 1 + g.intn(i)
		fresh[i], fresh[j] = fresh[j], fresh[i]
	}
	plan := make([]submission, n)
	var freshIdx []int
	for i := range plan {
		s := submission{due: due[i], tenant: fmt.Sprintf("tenant-%d", i%daemonTenants), ref: -1}
		if fresh[i] {
			k := len(freshIdx)
			s.horizon = sim.Time(horizonMS) * sim.Millisecond
			s.body = []byte(fmt.Sprintf(`{"kind":"sim","config":{"Seed":%d,"Horizon":%d}}`,
				seed*1_000_003+uint64(k)+1, int64(s.horizon)))
			freshIdx = append(freshIdx, i)
		} else {
			s.ref = freshIdx[g.intn(len(freshIdx))]
			s.body, s.horizon = plan[s.ref].body, plan[s.ref].horizon
		}
		plan[i] = s
	}
	return plan
}

// clock is the open loop's time source, faked in tests.
type clock interface {
	now() time.Duration
	sleepUntil(time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }
func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// openLoop calls send(i) at each due time, in order, from the calling
// goroutine, and returns how late each call started. A slow send
// delays the ones behind it; callers time each request from its due
// time, so that wait is part of the latency they report.
func openLoop(c clock, due []time.Duration, send func(i int)) []time.Duration {
	late := make([]time.Duration, len(due))
	for i, d := range due {
		c.sleepUntil(d)
		late[i] = max(0, c.now()-d)
		send(i)
	}
	return late
}

// idleGap is how far off the next submission must be for the open loop
// to time the host-speed kernel (about 9 ms) before it.
const idleGap = 40 * time.Millisecond

// idleRefClock is the open loop's clock during the daemon's window.
// Before sleeping towards a due time at least idleGap away while no job
// is outstanding, it times the host-speed kernel once, so latencies can
// be scaled by samples from the same moments of the window without the
// kernel taking a CPU from a job.
type idleRefClock struct {
	wallClock
	l    *daemonLoad
	at   []time.Duration // when each sample was taken, ascending
	refs []float64       // kernel ms
}

func (c *idleRefClock) sleepUntil(t time.Duration) {
	if now := c.now(); t-now > idleGap && c.l.idle() {
		c.at = append(c.at, now)
		c.refs = append(c.refs, ms(refKernel()))
	}
	c.wallClock.sleepUntil(t)
}

// nearRef is the median of the five kernel samples taken nearest to t
// (all of them if there are fewer); at is ascending.
func nearRef(at []time.Duration, refs []float64, t time.Duration) float64 {
	const k = 5
	i := sort.Search(len(at), func(i int) bool { return at[i] >= t })
	lo := min(max(i-k/2, 0), max(len(at)-k, 0))
	return median(refs[lo:min(lo+k, len(refs))])
}

// daemon is a live in-process potsimd served over loopback HTTP.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan struct{}
}

// newClient returns an HTTP client limited to one keep-alive
// connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func startDaemon(dataDir string, c *http.Client) (*daemon, error) {
	srv, err := service.New(service.Config{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	code, _, err := do(c, "GET", d.url+"/readyz", "", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("readyz answered %d", code)
	}
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

// stop drains the service and shuts the HTTP server down, waiting for
// both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := errors.Join(d.srv.Drain(ctx), d.hs.Shutdown(ctx))
	<-d.served
	return err
}

// do issues one request and reads the whole body so the connection is
// reused.
func do(c *http.Client, method, url, tenant string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// delivery is one submission's result as a client received it.
type delivery struct {
	kind    string // executed, dedup or hit
	fp      string
	body    []byte
	latency time.Duration // from the due time
}

// tracked is a job the poller is waiting on.
type tracked struct {
	subs    []int
	posted  time.Duration
	running time.Duration // first poll that saw it running; 0 until then
	span    *open
}

// daemonLoad is the state shared by the submitting and the polling
// client.
type daemonLoad struct {
	r      *run
	plan   []submission
	url    string
	clk    wallClock
	submit *http.Client
	poll   *http.Client

	mu          sync.Mutex
	outstanding map[string]*tracked
	deliveries  []*delivery
	fps         []string
	submitMS    []float64
	fetchMS     []float64
	queueMS     []float64
	runMS       []float64
	rejected    int
	failedJobs  int
	lastDone    time.Duration
}

type submitResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Deduped     bool   `json:"deduped"`
	CacheHit    bool   `json:"cacheHit"`
}

func (l *daemonLoad) send(i int) {
	s := l.plan[i]
	sp := l.r.tr.start(0, 0, "daemon.submission")
	post := sp.child("service.submit")
	t0 := l.clk.now()
	code, body, err := do(l.submit, "POST", l.url+"/v1/jobs", s.tenant, s.body)
	t1 := l.clk.now()
	post.end()
	var resp submitResponse
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST answered %d: %s", code, bytes.TrimSpace(body))
	}
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	var hit *delivery
	var fetchMS float64
	if err == nil && resp.CacheHit {
		fetch := sp.child("service.fetch")
		var doc []byte
		code, doc, err = do(l.submit, "GET", l.url+"/v1/jobs/"+resp.ID+"/result", "", nil)
		fetch.end()
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("cache hit %s: fetch answered %d", resp.ID, code)
		}
		t2 := l.clk.now()
		fetchMS = ms(t2 - t1)
		hit = &delivery{kind: "hit", fp: resp.Fingerprint, body: doc, latency: t2 - s.due}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.submitMS = append(l.submitMS, ms(t1-t0))
	if err != nil {
		l.rejected++
		l.r.problem("submission %d: %v", i, err)
		sp.end()
		return
	}
	l.fps[i] = resp.Fingerprint
	if hit != nil {
		l.fetchMS = append(l.fetchMS, fetchMS)
		l.deliveries[i] = hit
		sp.end()
		return
	}
	tr := l.outstanding[resp.ID]
	if tr == nil {
		tr = &tracked{posted: t1, span: sp}
		l.outstanding[resp.ID] = tr
	} else {
		sp.end()
	}
	tr.subs = append(tr.subs, i)
	kind := "executed"
	if resp.Deduped {
		kind = "dedup"
	}
	l.deliveries[i] = &delivery{kind: kind, fp: resp.Fingerprint}
}

// idle reports whether no submitted job is waiting for its result.
func (l *daemonLoad) idle() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.outstanding) == 0
}

// pollLoop checks every outstanding job each pollEvery until done is
// closed and nothing is outstanding.
func (l *daemonLoad) pollLoop(done <-chan struct{}) error {
	next := l.clk.now()
	deadline := time.Time{}
	for {
		l.mu.Lock()
		ids := make([]string, 0, len(l.outstanding))
		for id := range l.outstanding {
			ids = append(ids, id)
		}
		l.mu.Unlock()
		select {
		case <-done:
			if len(ids) == 0 {
				return nil
			}
			if deadline.IsZero() {
				deadline = time.Now().Add(daemonSettleCap)
			} else if time.Now().After(deadline) {
				return fmt.Errorf("%d jobs still unfinished %v after the last submission", len(ids), daemonSettleCap)
			}
		default:
		}
		sort.Strings(ids)
		for _, id := range ids {
			if err := l.pollOne(id); err != nil {
				return err
			}
		}
		next += pollEvery
		l.clk.sleepUntil(next)
	}
}

func (l *daemonLoad) pollOne(id string) error {
	t0 := l.clk.now()
	code, body, err := do(l.poll, "GET", l.url+"/v1/jobs/"+id+"/result", "", nil)
	t1 := l.clk.now()
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	tr := l.outstanding[id]
	switch code {
	case http.StatusOK:
		l.fetchMS = append(l.fetchMS, ms(t1-t0))
		start := tr.running
		if start == 0 {
			start = tr.posted
		}
		l.runMS = append(l.runMS, ms(t1-start))
		tr.span.record("service.run", l.clk.start.Add(start), l.clk.start.Add(t1))
		for _, i := range tr.subs {
			d := l.deliveries[i]
			d.body, d.latency = body, t1-l.plan[i].due
		}
		l.lastDone = max(l.lastDone, t1)
		tr.span.end()
		delete(l.outstanding, id)
	case http.StatusNotFound:
		var st service.Status
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("job %s status: %w", id, err)
		}
		if st.State == service.StateRunning && tr.running == 0 {
			tr.running = t1
			l.queueMS = append(l.queueMS, ms(t1-tr.posted))
			tr.span.record("service.queue", l.clk.start.Add(tr.posted), l.clk.start.Add(t1))
		}
	default:
		l.failedJobs += len(tr.subs)
		l.r.problem("job %s answered %d: %s", id, code, bytes.TrimSpace(body))
		tr.span.end()
		delete(l.outstanding, id)
	}
	return nil
}

func runDaemon(r *run) error {
	submitC, pollC := newClient(), newClient()
	defer submitC.CloseIdleConnections()
	defer pollC.CloseIdleConnections()
	// Set-up: bringing a daemon up until it answers /readyz, without a
	// data directory. With one, creating it on a shared disk took from
	// 0.2 to over 1 ms depending on the host's I/O phase, swings that
	// would drown any change to the daemon's own start-up. The daemon
	// that serves the load does use one.
	err := r.timeSetup(3, false, func() (time.Duration, error) {
		t := time.Now()
		d, err := startDaemon("", submitC)
		took := time.Since(t)
		if err != nil {
			return 0, err
		}
		return took, d.stop()
	})
	if err != nil {
		return err
	}
	d, err := startDaemon(filepath.Join(r.dir, "data"), submitC)
	if err != nil {
		return err
	}

	horizon := daemonHorizonMS
	if r.smoke {
		horizon /= 10
	}
	l := &daemonLoad{
		r: r, plan: daemonPlan(r.seed, r.window, daemonRate, horizon),
		url: d.url, submit: submitC, poll: pollC,
		outstanding: map[string]*tracked{},
	}
	l.deliveries = make([]*delivery, len(l.plan))
	l.fps = make([]string, len(l.plan))
	done := make(chan struct{})
	pollErr := make(chan error, 1)
	l.clk = wallClock{start: time.Now()}
	go func() { pollErr <- l.pollLoop(done) }()
	due := make([]time.Duration, len(l.plan))
	for i, s := range l.plan {
		due[i] = s.due
	}
	clk := &idleRefClock{wallClock: l.clk, l: l}
	late := openLoop(clk, due, l.send)
	close(done)
	err = <-pollErr
	r.wall = l.clk.now()
	r.overhead = r.tr.overhead()
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	if len(clk.refs) == 0 { // never idle: sample once after the window
		clk.at, clk.refs = []time.Duration{0}, []float64{sampleRef()}
	}
	r.refs = clk.refs

	r.attempted = len(l.plan)
	r.failed = l.rejected + l.failedJobs
	var executed, hits, dedups []float64
	byFP := map[string][]byte{}
	for i, dv := range l.deliveries {
		if dv == nil {
			continue
		}
		if dv.body == nil {
			r.failed++
			r.problem("submission %d was never delivered", i)
			continue
		}
		if prev, ok := byFP[dv.fp]; !ok {
			byFP[dv.fp] = dv.body
		} else if !bytes.Equal(prev, dv.body) {
			r.problem("submission %d (%s): result differs from an earlier delivery of the same spec", i, dv.kind)
		}
		switch dv.kind {
		case "executed":
			executed = append(executed, ms(dv.latency))
			r.addOp(ms(dv.latency))
			r.scale(refNominalMS / nearRef(clk.at, r.refs, l.plan[i].due))
			r.simMS += l.plan[i].horizon.Millis()
		case "hit":
			hits = append(hits, ms(dv.latency))
		case "dedup":
			dedups = append(dedups, ms(dv.latency))
		}
	}
	// The open loop sets the simulated throughput, not the host's speed:
	// it stays unscaled and drops only when the daemon falls behind.
	r.hostS = l.lastDone.Seconds()
	if err := rerunDaemonJobs(r, l); err != nil {
		return err
	}

	lateMS := make([]float64, len(late))
	for i, d := range late {
		lateMS[i] = ms(d)
	}
	lateAsc := sorted(lateMS)
	if p90 := quantile(lateAsc, 0.9); p90 > ms(maxLateness) {
		r.problem("a tenth of the submissions went out more than %.1f ms late (limit %v): the client fell behind its schedule", p90, maxLateness)
	}
	asc := sorted(executed)
	r.note("result_ms_p50", quantile(asc, 0.5), "ms")
	if q, ok := tailQuantile(len(asc), 0.9, 0.8); ok {
		r.note(fmt.Sprintf("result_ms_p%g", 100*q), quantile(asc, q), "ms")
	}
	r.note("executed_jobs", float64(len(executed)), "count")
	r.note("hit_ms_p50", median(hits), "ms")
	r.note("dedup_ms_p50", median(dedups), "ms")
	r.note("service.submit_ms_p50", median(l.submitMS), "ms")
	r.note("service.fetch_ms_p50", median(l.fetchMS), "ms")
	r.note("service.queue_ms_p50", median(l.queueMS), "ms")
	r.note("service.run_ms_p50", median(l.runMS), "ms")
	r.note("service.cache_hit_ratio", float64(len(hits))/float64(len(l.plan)), "ratio")
	r.note("service.dedup_ratio", float64(len(dedups))/float64(len(l.plan)), "ratio")
	r.note("generator_late_ms_p90", quantile(lateAsc, 0.9), "ms")
	r.note("generator_late_ms_max", quantile(lateAsc, 1), "ms")

	if r.led != nil {
		for _, i := range firstFresh(l.plan, 2) {
			spec, err := service.DecodeSpec(l.plan[i].body)
			if err != nil {
				return err
			}
			cfg, err := spec.SimConfig()
			if err != nil {
				return err
			}
			if err := r.led.probe(cfg, 20); err != nil {
				return err
			}
		}
	}
	return nil
}

// firstFresh returns the indexes of the first n fresh submissions.
func firstFresh(plan []submission, n int) []int {
	var out []int
	for i, s := range plan {
		if s.ref < 0 && len(out) < n {
			out = append(out, i)
		}
	}
	return out
}

// rerunDaemonJobs re-runs three seeded fresh specs in-process with
// core.New+Run and requires the daemon's delivered document to match
// byte for byte.
func rerunDaemonJobs(r *run, l *daemonLoad) error {
	g := newRNG(r.seed ^ 0x5eed)
	var fresh []int
	for i, s := range l.plan {
		if s.ref < 0 && l.deliveries[i] != nil && l.deliveries[i].body != nil {
			fresh = append(fresh, i)
		}
	}
	for k := 0; k < 3 && len(fresh) > 0; k++ {
		j := g.intn(len(fresh))
		i := fresh[j]
		fresh = append(fresh[:j], fresh[j+1:]...)
		spec, err := service.DecodeSpec(l.plan[i].body)
		if err != nil {
			return err
		}
		cfg, err := spec.SimConfig()
		if err != nil {
			return err
		}
		sys, err := core.New(cfg)
		if err != nil {
			return err
		}
		rep, err := sys.Run()
		if err != nil {
			return err
		}
		blob, err := rep.JSON()
		if err != nil {
			return err
		}
		want, err := json.Marshal(&service.ResultDoc{Kind: service.KindSim, Fingerprint: l.fps[i],
			Report: blob, GuardViolations: rep.GuardViolations})
		if err != nil {
			return err
		}
		if !bytes.Equal(want, l.deliveries[i].body) {
			r.problem("submission %d: daemon result differs from an in-process run of the same spec", i)
		}
		if k == 0 {
			r.digest = digestOf(want)
		}
	}
	return nil
}
