package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"potsim/internal/core"
	"potsim/internal/dse"
	"potsim/internal/results"
	"potsim/internal/sim"
)

// Campaign horizons. A campaign is one timed unit, so it has to fit the
// window several times over; many short cells are also what makes the
// engine's own costs (per-cell assembly, fsync'd journals, the result
// store) visible next to the simulations.
const (
	campaignHorizonMS = 60
	campaignScreenMS  = 15
)

// campaignSpec generates the campaign spec for a seed. Seed 1 is the
// reference spec. The engine numbers cell seeds 1..Seeds itself, so
// other seeds move the mean interarrival time by up to 3%: every
// arrival, and so every cell outcome and the frontier, changes, while
// the offered load — and the work per campaign — stays close to the
// reference. (Moving TDP fractions or test intervals instead changes
// how much testing, the dominant cost, the cells do.)
func campaignSpec(seed uint64) []byte {
	s := dse.Spec{
		Name:            fmt.Sprintf("potbench-%d", seed),
		Meshes:          []string{"8x8"},
		Nodes:           []string{"22nm", "16nm"},
		TDPFractions:    []float64{0.25, 0.35, 0.5},
		BaseIntervalsMS: []float64{20, 50},
		Policies:        []string{"pots", "naive", "notest"},
		Seeds:           2,
		HorizonMS:       campaignHorizonMS,
		Screen:          &dse.ScreenSpec{HorizonMS: campaignScreenMS, KeepRanks: 2},
	}
	if seed != 1 {
		// Rounded to whole simulated nanoseconds, the engine's resolution.
		s.MeanInterarrivalMS = math.Round(2e6*(1+0.03*newRNG(seed).signed())) / 1e6
	}
	blob, err := json.Marshal(&s)
	if err != nil {
		panic(err) // a plain struct of strings and numbers always marshals
	}
	return blob
}

// campaignCheckSpec is the small fixed campaign whose frontier CSV is
// checked against golden.json on every run (and is the unit of a smoke
// run).
const campaignCheckSpec = `{"name":"potbench-check","meshes":["8x8"],"nodes":["16nm"],` +
	`"tdpFractions":[0.35,0.5],"baseIntervalsMS":[20],"policies":["pots","notest"],` +
	`"seeds":2,"horizonMS":40,"screen":{"horizonMS":10,"keepRanks":1}}`

// stageClock timestamps the campaign engine's stage boundaries from its
// progress output, the only place the engine reports them.
type stageClock struct {
	mu     sync.Mutex
	starts map[string]time.Time
	order  []string
	done   time.Time
}

func (c *stageClock) Write(p []byte) (int, error) {
	now := time.Now()
	line := string(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case strings.Contains(line, " cells (") && strings.Contains(line, ": stage "):
		// "dse: NAME: stage STAGE: N cells (M already journaled)"
		rest := line[strings.Index(line, ": stage ")+len(": stage "):]
		stage, _, _ := strings.Cut(rest, ":")
		if c.starts == nil {
			c.starts = map[string]time.Time{}
		}
		c.starts[stage] = now
		c.order = append(c.order, stage)
	case strings.Contains(line, ": done: "):
		c.done = now
	}
	return len(p), nil
}

// durations returns each stage's length: from its start to the next
// stage's start, the last one to the done line.
func (c *stageClock) durations() map[string]time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]time.Duration{}
	for i, stage := range c.order {
		end := c.done
		if i+1 < len(c.order) {
			end = c.starts[c.order[i+1]]
		}
		if !end.IsZero() {
			out[stage] = end.Sub(c.starts[stage])
		}
	}
	return out
}

// runEngine runs one campaign in dir and returns its result and stage
// timings.
func runEngine(spec *dse.Spec, dir string, resume bool, sp *open) (*dse.Result, *stageClock, error) {
	clock := &stageClock{}
	eng := &dse.Engine{
		Spec:     spec,
		Dir:      filepath.Join(dir, "journal"),
		StoreDir: filepath.Join(dir, "store"),
		Resume:   resume,
		Workers:  2,
		Stderr:   clock,
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		return nil, nil, err
	}
	for stage, d := range clock.durations() {
		start := clock.starts[stage]
		sp.record("dse.stage."+stage, start, start.Add(d))
	}
	return res, clock, nil
}

func runCampaign(r *run) error {
	specJSON := campaignSpec(r.seed)
	if r.smoke {
		specJSON = []byte(campaignCheckSpec)
	}
	// Set-up: what precedes the first cell — parsing and validating the
	// spec, enumerating the space, fingerprinting it for the journals,
	// and assembling the first cell's system.
	err := r.timeSetup(10, true, func() (time.Duration, error) {
		t := time.Now()
		spec, err := dse.ParseSpec(specJSON)
		if err != nil {
			return 0, err
		}
		space, err := dse.NewSpace(spec)
		if err != nil {
			return 0, err
		}
		if _, err := spec.Fingerprint(); err != nil {
			return 0, err
		}
		sys, err := core.New(space.Config(space.Point(0), sim.FromSeconds(spec.HorizonMS/1000)))
		d := time.Since(t)
		if err == nil {
			sys.Close()
		}
		return d, err
	})
	if err != nil {
		return err
	}
	spec, err := dse.ParseSpec(specJSON)
	if err != nil {
		return err
	}

	check, err := dse.ParseSpec([]byte(campaignCheckSpec))
	if err != nil {
		return err
	}
	res, _, err := runEngine(check, filepath.Join(r.dir, "check"), false, nil)
	if err != nil {
		return fmt.Errorf("golden check campaign: %w", err)
	}
	r.checkGolden("campaign/check", digestOf([]byte(res.CSV())))

	var (
		csv            string
		lastDir        string
		cells          int64
		rawS           float64 // unscaled host seconds of the campaigns
		screenS, fullS []float64
	)
	err = r.loop(func(i int) error {
		if lastDir != "" {
			if err := os.RemoveAll(lastDir); err != nil {
				return err
			}
		}
		lastDir = filepath.Join(r.dir, fmt.Sprintf("unit%d", i))
		sp := r.tr.start(0, 0, "dse.Engine.Run")
		t := time.Now()
		res, clock, err := runEngine(spec, lastDir, false, sp)
		d := time.Since(t)
		sp.end()
		if err != nil {
			return err
		}
		r.addOp(ms(d))
		r.addHost(d)
		rawS += d.Seconds()
		cells += res.Total + res.Survivors
		st := clock.durations()
		screenS = append(screenS, st["screen"].Seconds())
		fullS = append(fullS, st["full"].Seconds())
		if n := len(res.Quarantine.Cells); n > 0 {
			r.problem("unit %d: %d cells quarantined: %s", i, n, res.Quarantine.Summary())
		}
		out := res.CSV()
		switch {
		case i == 0:
			csv = out
			r.digest = digestOf([]byte(out))
			if r.seed == 1 && !r.smoke {
				r.checkGolden("campaign/seed1", r.digest)
			}
		case out != csv:
			r.problem("unit %d: frontier differs from unit 0 on identical input", i)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Resume the last campaign on its finished journals: every cell is
	// served from the journal and the frontier must not change.
	sp := r.tr.start(0, 0, "dse.resume")
	t := time.Now()
	res, _, err = runEngine(spec, lastDir, true, sp)
	resume := time.Since(t)
	sp.end()
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if res.CSV() != csv {
		r.problem("resumed campaign frontier differs from the fresh run")
	}

	work, err := campaignWork(spec, filepath.Join(lastDir, "store"), r.tr)
	if err != nil {
		return err
	}
	r.simMS = float64(len(r.ops)) * work.simMS
	r.note("cells_per_s", float64(cells)/rawS, "1/s")
	r.note("dse.screen_s", median(screenS), "s")
	r.note("dse.full_s", median(fullS), "s")
	r.note("dse.resume_s", resume.Seconds(), "s")
	r.note("dse.sims_per_cell", work.sims/work.cells, "ratio")
	r.note("results.query_ms", ms(work.query), "ms")
	r.note("frontier_cells", float64(len(res.Frontier)), "count")
	r.note("full_cells", float64(res.Survivors), "count")

	if r.led != nil {
		return probeCampaign(r, spec)
	}
	return nil
}

// campaignUnitWork is what one campaign simulates.
type campaignUnitWork struct {
	cells, sims, simMS float64
	query              time.Duration // the full-stage store group-by
}

// campaignWork counts every screened cell, then the survivors the
// full-stage store holds (read back with a group-by, which times the
// result store's query path); a testing-policy cell runs twice because
// its penalty needs a NoTest reference run.
func campaignWork(spec *dse.Spec, storeDir string, tr *tracer) (campaignUnitWork, error) {
	var w campaignUnitWork
	space, err := dse.NewSpace(spec)
	if err != nil {
		return w, err
	}
	add := func(policy core.TestPolicyKind, n, horizonMS float64) {
		runs := 2.0
		if policy == core.PolicyNoTest {
			runs = 1
		}
		w.cells += n
		w.sims += n * runs
		w.simMS += n * runs * horizonMS
	}
	if spec.Screen != nil {
		for i := int64(0); i < space.Count(); i++ {
			add(space.Point(i).Policy, 1, spec.Screen.HorizonMS)
		}
	}
	st, err := results.Open(dse.StageStorePath(storeDir, "full"), nil)
	if err != nil {
		return w, err
	}
	sp := tr.start(0, 0, "results.RunQuery")
	t := time.Now()
	q, err := st.RunQuery(results.Query{GroupBy: []string{"policy"}, Aggs: []results.Agg{{Op: "count"}}})
	w.query = time.Since(t)
	sp.end()
	if err != nil {
		return w, err
	}
	for _, row := range q.Rows {
		n := float64(row[1].Int)
		if row[1].Kind == results.Float64 {
			n = row[1].F
		}
		add(core.TestPolicyKind(row[0].Str), n, spec.HorizonMS)
	}
	return w, nil
}

// probeCampaign feeds the ledger the first testing-policy cells of the
// campaign at its full horizon.
func probeCampaign(r *run, spec *dse.Spec) error {
	space, err := dse.NewSpace(spec)
	if err != nil {
		return err
	}
	probed := 0
	for i := int64(0); i < space.Count() && probed < 2; i++ {
		p := space.Point(i)
		if p.Policy == core.PolicyNoTest {
			continue
		}
		if err := r.led.probe(space.Config(p, sim.FromSeconds(spec.HorizonMS/1000)), 20); err != nil {
			return err
		}
		probed++
	}
	return nil
}
