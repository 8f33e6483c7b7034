package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"potsim/internal/core"
	"potsim/internal/expt"
	"potsim/internal/sim"
)

// suiteWorkers is the cell parallelism of the quick suite: the host's
// two CPUs.
const suiteWorkers = 2

// cellClock follows every cell of the running experiment through the
// runner's epoch hook: when its first and last epochs were integrated
// and how much simulated time it covered.
type cellClock struct {
	mu    sync.Mutex
	cells map[[2]int]*cellSpan
	ids   map[string]int
}

type cellSpan struct {
	first, last time.Time
	simulated   sim.Time
}

func (c *cellClock) reset() {
	c.mu.Lock()
	c.cells = map[[2]int]*cellSpan{}
	c.ids = map[string]int{}
	c.mu.Unlock()
}

func (c *cellClock) epoch(id string, cell int, _ int64, now sim.Time) {
	t := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.ids[id]
	if !ok {
		n = len(c.ids)
		c.ids[id] = n
	}
	cs := c.cells[[2]int{n, cell}]
	if cs == nil {
		cs = &cellSpan{first: t}
		c.cells[[2]int{n, cell}] = cs
	}
	cs.last, cs.simulated = t, now
}

// totals returns the simulated ms and the summed first-to-last busy
// time of the cells seen since the last reset.
func (c *cellClock) totals() (simMS float64, busy time.Duration, spans []*cellSpan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cs := range c.cells {
		simMS += cs.simulated.Millis()
		busy += cs.last.Sub(cs.first)
		spans = append(spans, cs)
	}
	return simMS, busy, spans
}

// suiteIDs is the experiment list of a run: the whole quick suite, or
// three short experiments at smoke scale.
func suiteIDs(smoke bool) []string {
	if smoke {
		return []string{"E2", "E3", "E4"}
	}
	return expt.IDs()
}

func runSuite(r *run) error {
	// Set-up: from asking the runner for an experiment to its first
	// integrated epoch (dispatch, worker pool, system assembly). E2 is
	// one short cell at base seed 0, so each repetition also checks its
	// table against golden.json.
	var (
		mu         sync.Mutex
		firstEpoch time.Time
		check      string
	)
	probe := &expt.Runner{Quick: true, Workers: suiteWorkers,
		OnCellEpoch: func(string, int, int64, sim.Time) {
			mu.Lock()
			if firstEpoch.IsZero() {
				firstEpoch = time.Now()
			}
			mu.Unlock()
		}}
	err := r.timeSetup(1, true, func() (time.Duration, error) {
		mu.Lock()
		firstEpoch = time.Time{}
		mu.Unlock()
		t := time.Now()
		res, err := probe.Run("E2")
		if err != nil {
			return 0, fmt.Errorf("golden check E2: %w", err)
		}
		check = res.Render()
		mu.Lock()
		defer mu.Unlock()
		return firstEpoch.Sub(t), nil
	})
	if err != nil {
		return err
	}
	r.checkGolden("quick-suite/E2", digestOf([]byte(check)))

	clock := &cellClock{}
	runner := &expt.Runner{Quick: true, Workers: suiteWorkers, BaseSeed: r.seed - 1, OnCellEpoch: clock.epoch}
	ids := suiteIDs(r.smoke)
	perID := map[string][]float64{}
	var renders []string
	var busy time.Duration
	rawS := 0.0 // unscaled host seconds of the experiments
	failed := 0
	err = r.loop(func(pass int) error {
		var all strings.Builder
		for _, id := range ids {
			clock.reset()
			sp := r.tr.start(0, 0, "expt."+id)
			t := time.Now()
			res, err := runner.Run(id)
			d := time.Since(t)
			simMS, cellBusy, cells := clock.totals()
			for _, cs := range cells {
				sp.record("batch.cell", cs.first, cs.last)
				r.addOp(ms(cs.last.Sub(cs.first)))
			}
			sp.end()
			perID[id] = append(perID[id], d.Seconds())
			r.simMS += simMS
			r.addHost(d)
			r.calibrate() // a pass is too long to scale by one sample after it
			rawS += d.Seconds()
			busy += cellBusy
			if err != nil {
				r.problem("%s: %v", id, err)
				failed++
				continue
			}
			out := res.Render()
			all.WriteString(out)
			if pass == 0 && r.seed == 1 && !r.smoke {
				r.checkGolden("quick-suite/"+id, digestOf([]byte(out)))
			}
		}
		renders = append(renders, all.String())
		if pass > 0 && renders[pass] != renders[0] {
			r.problem("pass %d rendered different tables than pass 0 on identical input", pass)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The operations timed are cells (first to last integrated epoch);
	// the ones attempted and failed are experiments.
	r.attempted, r.failed = len(renders)*len(ids), failed
	r.digest = digestOf([]byte(renders[0]))
	for _, id := range ids {
		r.note("expt."+id+".s", median(perID[id]), "s")
	}
	r.note("batch.busy_frac", busy.Seconds()/(rawS*suiteWorkers), "ratio")

	if r.led != nil {
		// The suite's common cell: the base configuration at the quick
		// horizon and the first seed (expt derives most cells from it).
		cfg := core.DefaultConfig()
		cfg.Horizon = 120 * sim.Millisecond
		cfg.Seed = runner.BaseSeed + 1
		return r.led.probe(cfg, 20)
	}
	return nil
}
