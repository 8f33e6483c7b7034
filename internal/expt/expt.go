// Package expt is the experiment harness: it regenerates every table and
// figure of the reproduction (E1..E19 in DESIGN.md) from the simulator,
// printing the same rows/series the paper's evaluation reports.
//
// Each experiment has a full mode (several seeds, longer horizons — what
// cmd/experiments runs) and a quick mode (one seed, short horizon — what
// the benchmarks in bench_test.go run).
package expt

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"potsim/internal/batch"
	"potsim/internal/checkpoint"
	"potsim/internal/core"
	"potsim/internal/dvfs"
	"potsim/internal/metrics"
	"potsim/internal/sbst"
	"potsim/internal/scheduler"
	"potsim/internal/sim"
	"potsim/internal/tech"
)

// Result is one regenerated experiment.
type Result struct {
	ID    string
	Title string
	Table *metrics.Table
	// Extra holds non-tabular output: histograms, trace excerpts, notes.
	Extra string
}

// Render returns the result as printable text.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	if r.Table != nil {
		b.WriteString(r.Table.Render())
	}
	if r.Extra != "" {
		b.WriteString("\n")
		b.WriteString(r.Extra)
	}
	return b.String()
}

// Runner executes experiments. Each experiment enumerates its
// independent (config x policy x seed) simulation cells up front and
// runs them on a worker pool (internal/batch); results are collected in
// cell order, so every aggregate — and hence every rendered table — is
// bit-identical to a sequential run whatever the worker count.
type Runner struct {
	// Quick shrinks horizons and seed counts for smoke/bench runs.
	Quick bool
	// BaseSeed offsets all run seeds (replication support).
	BaseSeed uint64
	// Workers bounds intra-experiment cell parallelism; <= 0 means
	// GOMAXPROCS, 1 recovers strictly sequential execution.
	Workers int
	// Ctx, when non-nil, cancels cell dispatch mid-experiment.
	Ctx context.Context
	// Progress, when non-nil, is called as an experiment's cells finish
	// (completion order, serialised per experiment).
	Progress func(id string, done, total int)
	// OnCellEpoch, when non-nil, observes every integrated epoch of every
	// cell: (experiment id, cell index, epochs completed, simulated time).
	// Cells run concurrently, so calls interleave across cell indexes; the
	// hook must be safe for concurrent use and fast (it runs on the
	// simulation goroutines). A service uses it to stream live progress.
	OnCellEpoch func(id string, cell int, epoch int64, now sim.Time)
	// GuardPolicy is forwarded into every cell's configuration:
	// "panic", "error" or "log" ("" selects the default, error).
	GuardPolicy string
	// CellTimeout, when positive, bounds each cell attempt's wall-clock
	// time; an overrunning cell fails with a batch.TimeoutError while its
	// siblings complete.
	CellTimeout time.Duration
	// Retries and RetryBackoff configure the batch retry budget for
	// transiently failing cells (see batch.Options).
	Retries      int
	RetryBackoff time.Duration
	// Chaos, when non-nil, injects controlled failures into matching
	// cells (test/diagnostic use only).
	Chaos *Chaos

	// CheckpointDir, when non-empty, makes experiments durable: every
	// completed cell is appended to an fsync'd journal under the
	// directory (<id>.journal), and in-flight cells periodically
	// snapshot their simulation state (<id>.cell<i>.ckpt) when
	// CheckpointEvery is set. A run killed at any point can then be
	// resumed without redoing finished work.
	CheckpointDir string
	// Resume reuses the durable state in CheckpointDir: cells the
	// journal records as complete are served from it without
	// re-running, and interrupted cells restart from their latest
	// snapshot. When false, stale journals are discarded and every
	// cell runs fresh.
	Resume bool
	// CheckpointEvery is the per-cell snapshot cadence in epochs; 0
	// disables mid-cell snapshots (the journal alone still lets a
	// resumed suite skip whole completed cells).
	CheckpointEvery int64
}

// cell is one independent simulation of an experiment's batch. The
// label names the sweep point for error reports.
type cell struct {
	label string
	cfg   core.Config
}

// runCells executes the cells through the batch pool and returns their
// reports in cell order. All failing cells are reported, not only the
// first. On error the report slice is still returned, with nil entries
// for the cells that failed, so experiments can degrade to partial
// tables instead of discarding the surviving results.
func (r *Runner) runCells(id string, cells []cell) (reports []*core.Report, retErr error) {
	ctx := r.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	opts := batch.Options{
		Workers:      r.Workers,
		CellTimeout:  r.CellTimeout,
		Retries:      r.Retries,
		RetryBackoff: r.RetryBackoff,
	}
	if r.Progress != nil {
		opts.OnCellDone = func(done, total int) { r.Progress(id, done, total) }
	}
	runOne := func(cctx context.Context, i int) (*core.Report, error) {
		rep, err := r.runCell(cctx, id, i, r.cellCheckpointPath(id, i), cells[i])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cells[i].label, err)
		}
		return rep, nil
	}
	j, cached, err := r.openJournal(id, cells)
	if err != nil {
		return make([]*core.Report, len(cells)), fmt.Errorf("%s: %w", id, err)
	}
	if j != nil {
		// A failed close can mean the final journal write never hit the
		// disk, so it must surface as a suite error, not vanish.
		defer func() {
			if cerr := j.Close(); cerr != nil {
				retErr = errors.Join(retErr, fmt.Errorf("%s: closing journal: %w", id, cerr))
			}
		}()
	}
	reports, err = batch.MapJournaled(ctx, opts, len(cells), j, cached, runOne)
	if reports == nil {
		reports = make([]*core.Report, len(cells))
	}
	if err != nil {
		return reports, fmt.Errorf("%s: %w", id, err)
	}
	return reports, nil
}

// openJournal opens the durable cell journal of one experiment, or
// returns a nil journal when durability is off. The journal's meta
// string fingerprints the whole suite — experiment id, mode, seed base
// and every cell's configuration — so a resumed run can never silently
// reuse results computed under different parameters: any drift makes
// OpenJournal fail with a descriptive mismatch error.
func (r *Runner) openJournal(id string, cells []cell) (*batch.Journal, map[int]json.RawMessage, error) {
	if r.CheckpointDir == "" {
		return nil, nil, nil
	}
	if err := os.MkdirAll(r.CheckpointDir, 0o755); err != nil {
		return nil, nil, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|quick=%v|base=%d|guard=%s|cells=%d",
		id, r.Quick, r.BaseSeed, r.GuardPolicy, len(cells))
	for _, c := range cells {
		ch, err := core.ConfigHash(c.cfg)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(h, "|%s=%s", c.label, ch)
	}
	meta := fmt.Sprintf("%s:%x", id, h.Sum(nil)[:12])
	path := filepath.Join(r.CheckpointDir, id+".journal")
	if !r.Resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, nil, err
		}
	}
	return batch.OpenJournal(path, meta)
}

// cellCheckpointPath is where cell i of an experiment snapshots its
// simulation state mid-run; empty when mid-cell snapshots are off.
func (r *Runner) cellCheckpointPath(id string, i int) string {
	if r.CheckpointDir == "" || r.CheckpointEvery <= 0 {
		return ""
	}
	return filepath.Join(r.CheckpointDir, fmt.Sprintf("%s.cell%d.ckpt", id, i))
}

// runCell executes one cell, applying chaos injection when configured.
// ExecuteCell sanity-gates the genuine run; the re-check here catches a
// chaos-poisoned report (nan mode), so it surfaces as that cell's
// failure rather than as NaNs in a rendered table.
func (r *Runner) runCell(ctx context.Context, id string, idx int, ckptPath string, c cell) (*core.Report, error) {
	rep, err := r.Chaos.Run(ctx, c.label, func() (*core.Report, error) {
		return r.run(ctx, id, idx, ckptPath, c.cfg)
	})
	if err != nil {
		return nil, err
	}
	if serr := rep.Sanity(); serr != nil {
		return nil, fmt.Errorf("report failed post-run sanity: %w", serr)
	}
	return rep, nil
}

// anyNil reports whether any of reports[k:k+n] is missing (failed cell).
func anyNil(reports []*core.Report, k, n int) bool {
	for _, rep := range reports[k : k+n] {
		if rep == nil {
			return true
		}
	}
	return false
}

// naRow emits a degraded table row: the label followed by cols "n/a"
// cells, marking an aggregation group with at least one failed cell.
func naRow(t *metrics.Table, label any, cols int) {
	row := make([]any, 0, cols+1)
	row = append(row, label)
	for i := 0; i < cols; i++ {
		row = append(row, "n/a")
	}
	t.AddRow(row...)
}

// skipNA checks the next group of n reports starting at *k: when any of
// them is missing it emits an n/a row, advances the cursor past the
// group and reports true.
func skipNA(t *metrics.Table, reports []*core.Report, k *int, n int, label any, cols int) bool {
	if !anyNil(reports, *k, n) {
		return false
	}
	*k += n
	naRow(t, label, cols)
	return true
}

// horizon returns the per-run simulated horizon.
func (r *Runner) horizon() sim.Time {
	if r.Quick {
		return 120 * sim.Millisecond
	}
	return 500 * sim.Millisecond
}

// seeds returns the replication seed set.
func (r *Runner) seeds() []uint64 {
	if r.Quick {
		return []uint64{r.BaseSeed + 1}
	}
	return []uint64{r.BaseSeed + 1, r.BaseSeed + 2, r.BaseSeed + 3}
}

// run executes one simulation through the shared ExecuteCell
// entrypoint, wiring the runner's epoch hook and durability fields.
func (r *Runner) run(ctx context.Context, id string, idx int, ckptPath string, cfg core.Config) (*core.Report, error) {
	opts := CellOptions{
		CheckpointPath:  ckptPath,
		CheckpointEvery: r.CheckpointEvery,
		Resume:          r.Resume,
	}
	if r.OnCellEpoch != nil {
		opts.Attach = func(sys *core.System) {
			sys.OnEpoch(func(epoch int64, now sim.Time) {
				r.OnCellEpoch(id, idx, epoch, now)
			})
		}
	}
	return ExecuteCell(ctx, cfg, opts)
}

// CellOptions configures one ExecuteCell invocation.
type CellOptions struct {
	// CheckpointPath, when non-empty, makes the run durable: it snapshots
	// its state there every CheckpointEvery epochs (0: only when
	// RequestStop ends the run) and, under Resume, continues from the
	// surviving snapshot instead of starting over.
	CheckpointPath  string
	CheckpointEvery int64
	Resume          bool
	// Attach, when non-nil, receives the assembled system after restore
	// and sink installation, just before Run: the place to install an
	// epoch observer or hand out the stop and guard-export hooks.
	Attach func(*core.System)
}

// ExecuteCell is the one way to run a simulation: it builds the system,
// restores it from a surviving snapshot, installs the snapshot sink,
// runs it, deletes the finished run's snapshot and gates the result
// through the report sanity check, so a numerically poisoned run
// surfaces as an error instead of NaNs downstream. The experiment
// harness, the DSE campaign engine, potsimd's sim jobs and cmd/potsim
// all run through it. The context, when non-nil, cancels the run at its
// next epoch boundary, so batch cancellation and cell timeouts reach
// in-flight simulations promptly instead of waiting them out. Flit-mode
// runs cannot snapshot (in-flight network state is not serializable)
// and run without durability; a cell journal still covers them.
func ExecuteCell(ctx context.Context, cfg core.Config, opts CellOptions) (*core.Report, error) {
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	sys.SetContext(ctx)
	ckptPath := opts.CheckpointPath
	if cfg.NoCMode == "flit" {
		ckptPath = ""
	}
	if ckptPath != "" {
		if opts.Resume {
			var snap core.Snapshot
			err := checkpoint.Load(ckptPath, core.SnapshotKind, core.SnapshotVersion, &snap)
			switch {
			case err == nil:
				if err := sys.Restore(&snap); err != nil {
					return nil, err
				}
			case os.IsNotExist(err):
				// No snapshot survived; the run starts from scratch.
			default:
				return nil, err
			}
		}
		sys.CheckpointEvery(opts.CheckpointEvery, func(snap *core.Snapshot) error {
			return checkpoint.Save(ckptPath, core.SnapshotKind, core.SnapshotVersion, snap)
		})
	}
	if opts.Attach != nil {
		opts.Attach(sys)
	}
	rep, err := sys.Run()
	if err != nil {
		return rep, err
	}
	if ckptPath != "" {
		// The run finished: its snapshot must not shadow a later fresh
		// run of the same cell.
		if rmErr := os.Remove(ckptPath); rmErr != nil && !os.IsNotExist(rmErr) {
			return nil, rmErr
		}
	}
	if serr := rep.Sanity(); serr != nil {
		return nil, fmt.Errorf("report failed post-run sanity: %w", serr)
	}
	return rep, nil
}

// baseConfig is the shared starting point of all experiments.
func (r *Runner) baseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Horizon = r.horizon()
	cfg.GuardPolicy = r.GuardPolicy
	return cfg
}

// meanOver runs cfg once per seed for each policy and returns per-policy
// mean reports of the metrics the experiments aggregate.
type agg struct {
	tput, testShare, viol, skip, done, aborted float64
	queueMS, dispersion, util                  float64
	n                                          int
	last                                       *core.Report
}

func (a *agg) add(rep *core.Report) {
	a.tput += rep.ThroughputTasksPerSec
	a.testShare += rep.TestEnergyShare
	a.viol += rep.ViolationRate
	a.skip += float64(rep.TestsSkipPower)
	a.done += float64(rep.TestsCompleted)
	a.aborted += float64(rep.TestsAborted)
	a.queueMS += rep.MeanQueueDelay.Millis()
	a.dispersion += rep.MeanDispersion
	a.util += rep.MeanCoreUtilization
	a.n++
	a.last = rep
}

func (a *agg) mean(x float64) float64 {
	if a.n == 0 {
		return 0
	}
	return x / float64(a.n)
}

// IDs lists the experiments in order.
func IDs() []string {
	return []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19"}
}

// ValidID reports whether id names a known experiment (case-insensitive,
// the spelling Run accepts). Services validate submissions with it
// before spending a queue slot.
func ValidID(id string) bool {
	up := strings.ToUpper(strings.TrimSpace(id))
	for _, known := range IDs() {
		if up == known {
			return true
		}
	}
	return false
}

// Run dispatches one experiment by ID.
func (r *Runner) Run(id string) (*Result, error) {
	switch strings.ToUpper(id) {
	case "E1":
		return r.E1()
	case "E2":
		return r.E2()
	case "E3":
		return r.E3()
	case "E4":
		return r.E4()
	case "E5":
		return r.E5()
	case "E6":
		return r.E6()
	case "E7":
		return r.E7()
	case "E8":
		return r.E8()
	case "E9":
		return r.E9()
	case "E10":
		return r.E10()
	case "E11":
		return r.E11()
	case "E12":
		return r.E12()
	case "E13":
		return r.E13()
	case "E14":
		return r.E14()
	case "E15":
		return r.E15()
	case "E16":
		return r.E16()
	case "E17":
		return r.E17()
	case "E18":
		return r.E18()
	case "E19":
		return r.E19()
	default:
		return nil, fmt.Errorf("expt: unknown experiment %q (have %v)", id, IDs())
	}
}

// E1 — throughput penalty of online testing across system load (C1).
func (r *Runner) E1() (*Result, error) {
	loads := []sim.Time{8 * sim.Millisecond, 4 * sim.Millisecond,
		2 * sim.Millisecond, sim.Millisecond}
	t := metrics.NewTable(
		"E1: throughput penalty of online testing vs no-test baseline (16nm)",
		"interarrival", "core-util", "tput-ref(tasks/s)",
		"penalty-POTS(%)", "penalty-Naive(%)", "test-energy(%)")
	var cells []cell
	for _, iat := range loads {
		for _, seed := range r.seeds() {
			cfg := r.baseConfig()
			// A criticality-independent mapper keeps the mapping identical
			// across test policies, isolating the testing overhead; the
			// slightly binding budget makes power-awareness matter.
			cfg.MapperName = "NN"
			cfg.TDPFraction = 0.30
			cfg.MeanInterarrival = iat
			cfg.Seed = seed
			for _, pol := range []core.TestPolicyKind{core.PolicyPOTS,
				core.PolicyNoTest, core.PolicyNaive} {
				c := cfg
				c.TestPolicy = pol
				cells = append(cells, cell{
					label: fmt.Sprintf("iat=%v seed=%d %s", iat, seed, pol),
					cfg:   c,
				})
			}
		}
	}
	reports, err := r.runCells("E1", cells)
	k := 0
	for _, iat := range loads {
		if skipNA(t, reports, &k, 3*len(r.seeds()), iat.String(), 5) {
			continue
		}
		var penP, penN, util, tputRef, share float64
		for range r.seeds() {
			rep, ref, naive := reports[k], reports[k+1], reports[k+2]
			k += 3
			penP += rep.ThroughputPenalty(ref)
			penN += naive.ThroughputPenalty(ref)
			util += rep.MeanCoreUtilization
			tputRef += ref.ThroughputTasksPerSec
			share += rep.TestEnergyShare
		}
		n := float64(len(r.seeds()))
		t.AddRow(iat.String(), util/n, tputRef/n, 100*penP/n, 100*penN/n, 100*share/n)
	}
	return &Result{ID: "E1",
		Title: "System throughput penalty of power-aware online testing (claim: <1% at 16nm)",
		Table: t,
		Extra: "Shape check: POTS penalty stays below 1% at every load (claim C1). The\npower-unaware baseline's penalty is larger once the budget binds (see E9 for\nthe full budget sweep).\n",
	}, err
}

// E2 — power trace: workload + test power under the TDP (C2, C3, C7).
func (r *Runner) E2() (*Result, error) {
	cfg := r.baseConfig()
	cfg.Seed = r.seeds()[0]
	cfg.TraceEvery = 5 * sim.Millisecond
	reports, err := r.runCells("E2", []cell{{label: "trace", cfg: cfg}})
	t := metrics.NewTable(
		"E2: chip power trace under dynamic power budgeting",
		"t(ms)", "workload(W)", "test(W)", "total(W)", "TDP(W)")
	rep := reports[0]
	if rep == nil {
		naRow(t, "n/a", 4)
		return &Result{ID: "E2",
			Title: "Power trace: tests carved from the slack under the TDP",
			Table: t, Extra: "trace cell failed; no data\n"}, err
	}
	for _, p := range rep.Trace {
		t.AddRow(p.At.Millis(), p.Workload, p.Test, p.Total(), p.Budget)
	}
	extra := fmt.Sprintf(
		"mean power %.2f W, peak %.2f W, TDP %.2f W, violations %d (%.2f%%)\n"+
			"test energy share: %.2f%% of consumed energy (claim C3: ~2%%)\n",
		rep.MeanPowerW, rep.PeakPowerW, rep.TDPWatts,
		rep.TDPViolations, 100*rep.ViolationRate, 100*rep.TestEnergyShare)
	return &Result{ID: "E2",
		Title: "Power trace: tests carved from the slack under the TDP",
		Table: t, Extra: extra}, err
}

// E3 — test-interval adaptation to core stress/utilization (C4).
func (r *Runner) E3() (*Result, error) {
	cfg := r.baseConfig()
	cfg.Seed = r.seeds()[0]
	if !r.Quick {
		cfg.Horizon = sim.Second
	}
	reports, err := r.runCells("E3", []cell{{label: "stress", cfg: cfg}})
	rep := reports[0]
	if rep == nil {
		t := metrics.NewTable(
			"E3: per-core test intensity follows stress (top/bottom 8 cores by stress)",
			"core", "stress", "util-ewma", "idle-frac", "tests", "tests-per-idle-sec")
		naRow(t, "n/a", 5)
		return &Result{ID: "E3",
			Title: "Criticality metric adapts test frequency to core stress/utilization",
			Table: t, Extra: "stress cell failed; no data\n"}, err
	}
	type row struct {
		id         int
		stress     float64
		util       float64
		idle       float64
		tests      int
		perIdleSec float64
	}
	rows := make([]row, len(rep.PerCoreStress))
	for i := range rows {
		rows[i] = row{
			id: i, stress: rep.PerCoreStress[i], util: rep.PerCoreUtil[i],
			idle: rep.PerCoreIdleFrac[i], tests: rep.PerCoreTests[i],
		}
		idleSec := rows[i].idle * rep.Horizon.Seconds()
		if idleSec > 0 {
			rows[i].perIdleSec = float64(rows[i].tests) / idleSec
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].stress > rows[b].stress })
	t := metrics.NewTable(
		"E3: per-core test intensity follows stress (top/bottom 8 cores by stress)",
		"core", "stress", "util-ewma", "idle-frac", "tests", "tests-per-idle-sec")
	show := rows
	if len(rows) > 16 {
		show = append(append([]row{}, rows[:8]...), rows[len(rows)-8:]...)
	}
	for _, x := range show {
		t.AddRow(x.id, x.stress, x.util, x.idle, x.tests, x.perIdleSec)
	}
	half := len(rows) / 2
	var hi, lo float64
	for _, x := range rows[:half] {
		hi += x.perIdleSec
	}
	for _, x := range rows[half:] {
		lo += x.perIdleSec
	}
	extra := fmt.Sprintf(
		"mean tests-per-idle-second: top-stress half %.2f vs bottom half %.2f\n"+
			"(claim C4: stressed cores are tested more eagerly when idle)\n",
		hi/float64(half), lo/float64(len(rows)-half))
	return &Result{ID: "E3",
		Title: "Criticality metric adapts test frequency to core stress/utilization",
		Table: t, Extra: extra}, err
}

// E4 — DVFS level coverage of executed tests (C5).
func (r *Runner) E4() (*Result, error) {
	cfg := r.baseConfig()
	cfg.Seed = r.seeds()[0]
	reports, err := r.runCells("E4", []cell{{label: "coverage", cfg: cfg}})
	pts := cfg.Node.OperatingPoints(cfg.DVFSLevels)
	t := metrics.NewTable(
		"E4: completed tests per DVFS operating point",
		"level", "V(V)", "f(GHz)", "tests")
	rep := reports[0]
	if rep == nil {
		naRow(t, "n/a", 3)
		return &Result{ID: "E4",
			Title: "Tests cover all voltage/frequency levels",
			Table: t, Extra: "coverage cell failed; no data\n"}, err
	}
	for lvl, n := range rep.LevelRuns {
		t.AddRow(lvl, pts[lvl].Voltage, pts[lvl].FreqHz/1e9, n)
	}
	extra := fmt.Sprintf("level coverage: %.0f%% of levels saw at least one test (claim C5: all)\n%s",
		100*rep.LevelCoverage, rep.LevelHistogram())
	return &Result{ID: "E4",
		Title: "Tests cover all voltage/frequency levels",
		Table: t, Extra: extra}, err
}

// E5 — mapping-policy comparison (C6).
func (r *Runner) E5() (*Result, error) {
	t := metrics.NewTable(
		"E5: runtime mapping policies under online testing",
		"mapper", "tput(tasks/s)", "dispersion(hops)", "queue-delay(ms)",
		"tests-done", "tests-aborted", "mean-test-interval(ms)")
	mappers := []string{"FF", "NN", "CoNA", "MapPro", "TUM"}
	var cells []cell
	for _, m := range mappers {
		for _, seed := range r.seeds() {
			cfg := r.baseConfig()
			cfg.MapperName = m
			cfg.Seed = seed
			cells = append(cells, cell{
				label: fmt.Sprintf("mapper=%s seed=%d", m, seed), cfg: cfg})
		}
	}
	reports, err := r.runCells("E5", cells)
	k := 0
	for _, m := range mappers {
		if skipNA(t, reports, &k, len(r.seeds()), m, 6) {
			continue
		}
		var a agg
		for range r.seeds() {
			a.add(reports[k])
			k++
		}
		t.AddRow(m, a.mean(a.tput), a.mean(a.dispersion), a.mean(a.queueMS),
			a.mean(a.done), a.mean(a.aborted), a.last.MeanTestIntervalMS())
	}
	return &Result{ID: "E5",
		Title: "Test-aware utilization-oriented mapping vs baselines",
		Table: t,
		Extra: "Shape check: among contiguous mappers, TUM completes at least as many tests\nwith shorter, steadier test intervals at comparable throughput. FF packs more\ntasks by scattering, but fragments the chip: fewer tests, longer intervals,\nmore preempted tests.\n",
	}, err
}

// E6 — scalability over mesh sizes.
func (r *Runner) E6() (*Result, error) {
	type size struct{ w, h int }
	sizes := []size{{4, 4}, {6, 6}, {8, 8}, {10, 10}, {12, 12}}
	if r.Quick {
		sizes = []size{{4, 4}, {8, 8}}
	}
	t := metrics.NewTable(
		"E6: scalability across mesh sizes (arrivals scaled with core count)",
		"mesh", "cores", "tput(tasks/s)", "tput-per-core", "test-energy(%)",
		"violations(%)", "test-interval(ms)")
	var cells []cell
	for _, sz := range sizes {
		cfg := r.baseConfig()
		cfg.Width, cfg.Height = sz.w, sz.h
		cfg.Seed = r.seeds()[0]
		cores := sz.w * sz.h
		cfg.MeanInterarrival = sim.Time(int64(2*sim.Millisecond) * 64 / int64(cores))
		// Memory interfaces scale with integration; without this the
		// sweep measures the memory wall, not the scheduler.
		cfg.MemCapacityHz *= float64(cores) / 64
		cells = append(cells, cell{
			label: fmt.Sprintf("mesh=%dx%d", sz.w, sz.h), cfg: cfg})
	}
	reports, err := r.runCells("E6", cells)
	for i, sz := range sizes {
		rep := reports[i]
		if rep == nil {
			naRow(t, fmt.Sprintf("%dx%d", sz.w, sz.h), 6)
			continue
		}
		cores := sz.w * sz.h
		t.AddRow(fmt.Sprintf("%dx%d", sz.w, sz.h), cores,
			rep.ThroughputTasksPerSec,
			rep.ThroughputTasksPerSec/float64(cores),
			100*rep.TestEnergyShare, 100*rep.ViolationRate,
			rep.MeanTestIntervalMS())
	}
	return &Result{ID: "E6",
		Title: "Scalability: per-core throughput and test overhead across mesh sizes",
		Table: t}, err
}

// E7 — technology sweep: dark silicon and the test opportunity.
func (r *Runner) E7() (*Result, error) {
	t := metrics.NewTable(
		"E7: technology scaling under a fixed 32 W package TDP",
		"node", "cores", "dark-frac(%)", "tput(tasks/s)", "core-util",
		"tests-done", "test-energy(%)")
	type die struct {
		name string
		w, h int
	}
	dies := []die{{"45nm", 4, 4}, {"32nm", 8, 4}, {"22nm", 8, 8}, {"16nm", 16, 8}}
	if r.Quick {
		dies = []die{{"45nm", 4, 4}, {"16nm", 16, 8}}
	}
	const packageTDP = 32.0
	var cells []cell
	for _, d := range dies {
		cfg := r.baseConfig()
		node, err := techByName(d.name)
		if err != nil {
			return nil, err
		}
		cfg.Node = node
		cfg.Width, cfg.Height = d.w, d.h
		cfg.TDPWatts = packageTDP
		cfg.Seed = r.seeds()[0]
		cores := d.w * d.h
		cfg.MeanInterarrival = sim.Time(int64(2*sim.Millisecond) * 64 / int64(cores))
		cfg.MemCapacityHz *= float64(cores) / 64 // interfaces scale with integration
		// Small dies cannot host the 16-task VOPD graph: shrink the mix
		// to random graphs that fit.
		if cores < 16 {
			cfg.Mix.EmbeddedShare = 0
			cfg.Mix.Random.MaxTasks = cores / 2
		}
		cells = append(cells, cell{label: "node=" + d.name, cfg: cfg})
	}
	reports, err := r.runCells("E7", cells)
	for i, d := range dies {
		rep := reports[i]
		if rep == nil {
			naRow(t, d.name, 6)
			continue
		}
		cores := d.w * d.h
		t.AddRow(d.name, cores, 100*cells[i].cfg.Node.DarkFraction(packageTDP, cores),
			rep.ThroughputTasksPerSec, rep.MeanCoreUtilization,
			rep.TestsCompleted, 100*rep.TestEnergyShare)
	}
	return &Result{ID: "E7",
		Title: "Dark-silicon fraction grows with scaling; idle+power slack feeds testing",
		Table: t}, err
}

// E8 — fault detection under injected faults.
func (r *Runner) E8() (*Result, error) {
	t := metrics.NewTable(
		"E8: fault detection under accelerated aging-driven injection",
		"policy", "injected", "detected", "rate(%)", "mean-latency(ms)",
		"escapes", "corruptions")
	policies := []core.TestPolicyKind{core.PolicyPOTS, core.PolicyNaive,
		core.PolicyPeriodic, core.PolicyNoTest}
	var cells []cell
	for _, pol := range policies {
		for _, seed := range r.seeds() {
			cfg := r.baseConfig()
			if !r.Quick {
				cfg.Horizon = sim.Second
			}
			cfg.TestPolicy = pol
			cfg.EnableFaults = true
			cfg.Faults.BaseRatePerSec = 0.1
			cfg.Seed = seed
			cells = append(cells, cell{
				label: fmt.Sprintf("policy=%s seed=%d", pol, seed), cfg: cfg})
		}
	}
	reports, err := r.runCells("E8", cells)
	k := 0
	for _, pol := range policies {
		if skipNA(t, reports, &k, len(r.seeds()), string(pol), 6) {
			continue
		}
		var inj, det, esc, corr, lat float64
		for range r.seeds() {
			rep := reports[k]
			k++
			fs := rep.FaultStats
			inj += float64(fs.Injected)
			det += float64(fs.Detected)
			esc += float64(fs.TotalEscapes)
			corr += float64(fs.Corruptions)
			lat += fs.MeanLatency.Millis()
		}
		n := float64(len(r.seeds()))
		rate := 0.0
		if inj > 0 {
			rate = 100 * det / inj
		}
		t.AddRow(string(pol), inj/n, det/n, rate, lat/n, esc/n, corr/n)
	}
	return &Result{ID: "E8",
		Title: "Detection latency and escapes: online testing vs no testing",
		Table: t,
		Extra: "Shape check: any online-testing policy detects most faults while NoTest\ndetects none and accumulates silent corruptions.\n",
	}, err
}

// E9 — sensitivity to the power budget (C2, C7).
func (r *Runner) E9() (*Result, error) {
	fracs := []float64{0.20, 0.25, 0.30, 0.40, 0.60, 0.80}
	if r.Quick {
		fracs = []float64{0.25, 0.40}
	}
	t := metrics.NewTable(
		"E9: TDP sweep — power-aware testing degrades gracefully",
		"tdp-frac", "TDP(W)", "tput(tasks/s)", "penalty-POTS(%)",
		"penalty-Naive(%)", "tests-done", "power-skips", "viol-POTS(%)", "viol-Naive(%)")
	var cells []cell
	for _, f := range fracs {
		for _, seed := range r.seeds() {
			cfg := r.baseConfig()
			cfg.MapperName = "NN" // identical mapping across policies
			cfg.TDPFraction = f
			cfg.Seed = seed
			for _, pol := range []core.TestPolicyKind{core.PolicyPOTS,
				core.PolicyNoTest, core.PolicyNaive} {
				c := cfg
				c.TestPolicy = pol
				cells = append(cells, cell{
					label: fmt.Sprintf("tdp=%.2f seed=%d %s", f, seed, pol),
					cfg:   c,
				})
			}
		}
	}
	reports, err := r.runCells("E9", cells)
	k := 0
	for _, f := range fracs {
		if skipNA(t, reports, &k, 3*len(r.seeds()), f, 8) {
			continue
		}
		var penP, penN, tput, done, skips, violP, violN float64
		var tdp float64
		for range r.seeds() {
			rep, ref, nv := reports[k], reports[k+1], reports[k+2]
			k += 3
			tdp = rep.TDPWatts
			penP += rep.ThroughputPenalty(ref)
			penN += nv.ThroughputPenalty(ref)
			tput += rep.ThroughputTasksPerSec
			done += float64(rep.TestsCompleted)
			skips += float64(rep.TestsSkipPower)
			violP += rep.ViolationRate
			violN += nv.ViolationRate
		}
		n := float64(len(r.seeds()))
		t.AddRow(f, tdp, tput/n, 100*penP/n, 100*penN/n, done/n, skips/n,
			100*violP/n, 100*violN/n)
	}
	return &Result{ID: "E9",
		Title: "Budget sensitivity: POTS skips tests under tight TDPs instead of violating",
		Table: t}, err
}

// E10 — ablations of the POTS design points.
func (r *Runner) E10() (*Result, error) {
	type variant struct {
		name string
		mut  func(*core.Config)
	}
	variants := []variant{
		{"full-POTS", func(c *core.Config) {}},
		{"no-criticality", func(c *core.Config) { c.SchedOptions.UseCriticality = false }},
		{"no-rotation", func(c *core.Config) { c.SchedOptions.RotateLevels = false }},
		{"no-power-aware", func(c *core.Config) { c.SchedOptions.PowerAware = false }},
		{"notest", func(c *core.Config) { c.TestPolicy = core.PolicyNoTest }},
	}
	t := metrics.NewTable(
		"E10: ablation of the proposed scheduler's design points",
		"variant", "tput(tasks/s)", "tests-done", "level-coverage(%)",
		"power-skips", "violations(%)", "test-energy(%)")
	var cells []cell
	for _, v := range variants {
		for _, seed := range r.seeds() {
			cfg := r.baseConfig()
			cfg.TDPFraction = 0.28 // binding budget separates the variants
			cfg.Seed = seed
			v.mut(&cfg)
			cells = append(cells, cell{
				label: fmt.Sprintf("variant=%s seed=%d", v.name, seed), cfg: cfg})
		}
	}
	reports, err := r.runCells("E10", cells)
	k := 0
	for _, v := range variants {
		if skipNA(t, reports, &k, len(r.seeds()), v.name, 6) {
			continue
		}
		var a agg
		var cov float64
		for range r.seeds() {
			rep := reports[k]
			k++
			a.add(rep)
			cov += rep.LevelCoverage
		}
		n := float64(a.n)
		t.AddRow(v.name, a.mean(a.tput), a.mean(a.done), 100*cov/n,
			a.mean(a.skip), 100*a.mean(a.viol), 100*a.mean(a.testShare))
	}
	return &Result{ID: "E10",
		Title: "Ablation: criticality economises test energy, rotation earns level coverage, power-awareness defers tests under pressure",
		Table: t,
		Extra: "Shape check: without criticality the scheduler burns ~10x test energy for the\nsame coverage; without rotation only the top level is ever validated; without\npower-awareness no launch is ever deferred, whatever the budget says.\n"}, err
}

// techByName resolves a technology node (thin wrapper keeping the tech
// import local to E7).
func techByName(name string) (tech.Node, error) { return tech.ByName(name) }

// E11 — validation: the analytic transaction NoC model against the
// co-simulated flit-level network on identical seeds.
func (r *Runner) E11() (*Result, error) {
	horizon := 60 * sim.Millisecond
	if r.Quick {
		horizon = 25 * sim.Millisecond
	}
	t := metrics.NewTable(
		"E11: transaction-model validation against flit-level co-simulation",
		"mode", "tasks-done", "tests-done", "mean-power(W)", "core-util")
	type outcome struct{ tasks, tests int }
	var txn, flit outcome
	modes := []string{"txn", "flit"}
	var cells []cell
	for _, mode := range modes {
		cfg := r.baseConfig()
		cfg.Horizon = horizon
		cfg.MapperName = "NN"
		cfg.Seed = r.seeds()[0]
		cfg.NoCMode = mode
		cells = append(cells, cell{label: "mode=" + mode, cfg: cfg})
	}
	reports, err := r.runCells("E11", cells)
	degraded := false
	for i, mode := range modes {
		rep := reports[i]
		if rep == nil {
			naRow(t, mode, 4)
			degraded = true
			continue
		}
		t.AddRow(mode, rep.TasksCompleted, rep.TestsCompleted,
			rep.MeanPowerW, rep.MeanCoreUtilization)
		if mode == "txn" {
			txn = outcome{rep.TasksCompleted, rep.TestsCompleted}
		} else {
			flit = outcome{rep.TasksCompleted, rep.TestsCompleted}
		}
	}
	extra := "task-throughput deviation: n/a (a validation cell failed)\n"
	if !degraded {
		dev := 0.0
		if txn.tasks > 0 {
			dev = 100 * absf(float64(flit.tasks-txn.tasks)) / float64(txn.tasks)
		}
		extra = fmt.Sprintf("task-throughput deviation: %.1f%% (the analytic model is the\n"+
			"long-run stand-in for the wormhole network; see DESIGN.md substitutions)\n", dev)
	}
	return &Result{ID: "E11",
		Title: "Analytic NoC model vs flit-level wormhole co-simulation",
		Table: t, Extra: extra}, err
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// E12 — mixed criticality under a binding cap: the class-aware capper
// (ICCD'14 substrate) protects hard real-time demand while best-effort
// work absorbs the throttling.
func (r *Runner) E12() (*Result, error) {
	t := metrics.NewTable(
		"E12: per-class DVFS slowdown under a binding TDP (fraction 0.22)",
		"capper", "slowdown-hardRT", "slowdown-softRT", "slowdown-BE",
		"tasks-hardRT", "tasks-softRT", "tasks-BE")
	cappers := []bool{true, false}
	var cells []cell
	for _, aware := range cappers {
		for _, seed := range r.seeds() {
			cfg := r.baseConfig()
			cfg.TDPFraction = 0.22
			cfg.Seed = seed
			cfg.ClassAwareDVFS = aware
			cells = append(cells, cell{
				label: fmt.Sprintf("aware=%v seed=%d", aware, seed), cfg: cfg})
		}
	}
	reports, err := r.runCells("E12", cells)
	k := 0
	for _, aware := range cappers {
		name := "class-aware"
		if !aware {
			name = "class-blind"
		}
		if skipNA(t, reports, &k, len(r.seeds()), name, 6) {
			continue
		}
		var sh, ss, sb float64
		var th, ts, tb float64
		n := 0
		for range r.seeds() {
			rep := reports[k]
			k++
			sh += rep.ClassSlowdown["hard-rt"]
			ss += rep.ClassSlowdown["soft-rt"]
			sb += rep.ClassSlowdown["best-effort"]
			th += float64(rep.ClassTasks["hard-rt"])
			ts += float64(rep.ClassTasks["soft-rt"])
			tb += float64(rep.ClassTasks["best-effort"])
			n++
		}
		fn := float64(n)
		t.AddRow(name, sh/fn, ss/fn, sb/fn, th/fn, ts/fn, tb/fn)
	}
	return &Result{ID: "E12",
		Title: "Mixed criticality: hard real-time work is throttled last (ICCD'14 substrate)",
		Table: t,
		Extra: "Shape check: with the class-aware capper, hard-RT slowdown drops below its\nclass-blind value while best-effort absorbs at least as much throttling.\n"}, err
}

// E13 — wear leveling and lifetime: the group's follow-up question ("can
// dark silicon be exploited to prolong system lifetime?"). Lifetime is a
// weakest-link property, so the figure of merit is the stress of the most
// worn core and the imbalance across the die after a long accelerated run.
func (r *Runner) E13() (*Result, error) {
	t := metrics.NewTable(
		"E13: end-of-run aging stress by mapper (accelerated to ~6 effective years)",
		"mapper", "mean-stress", "max-stress", "imbalance(max/mean)",
		"stress-std", "tput(tasks/s)")
	mappers := []string{"FF", "NN", "CoNA", "TUM"}
	var cells []cell
	for _, m := range mappers {
		for _, seed := range r.seeds() {
			cfg := r.baseConfig()
			if !r.Quick {
				cfg.Horizon = sim.Second
			}
			cfg.MapperName = m
			cfg.Aging.AccelFactor = 2e8
			cfg.Seed = seed
			cells = append(cells, cell{
				label: fmt.Sprintf("mapper=%s seed=%d", m, seed), cfg: cfg})
		}
	}
	reports, err := r.runCells("E13", cells)
	k := 0
	for _, m := range mappers {
		if skipNA(t, reports, &k, len(r.seeds()), m, 5) {
			continue
		}
		var mean, max, imb, std, tput float64
		n := 0
		for range r.seeds() {
			rep := reports[k]
			k++
			var mx, sum, sq float64
			for _, s := range rep.PerCoreStress {
				if s > mx {
					mx = s
				}
				sum += s
				sq += s * s
			}
			cores := float64(len(rep.PerCoreStress))
			mn := sum / cores
			mean += mn
			max += mx
			if mn > 0 {
				imb += mx / mn
			}
			std += sqrtf(sq/cores - mn*mn)
			tput += rep.ThroughputTasksPerSec
			n++
		}
		fn := float64(n)
		t.AddRow(m, mean/fn, max/fn, imb/fn, std/fn, tput/fn)
	}
	return &Result{ID: "E13",
		Title: "Wear leveling: utilization-aware mapping spreads aging across the die",
		Table: t,
		Extra: "Shape check: the contiguous, utilization-aware mappers (TUM/NN/CoNA) end\nwith clearly lower maximum stress than FF, which concentrates wear on the\nlow-index corner; TUM has the lowest mean stress. The TUM-vs-NN gap is\nnoise-level at this horizon. (NBTI idle recovery is active, so resting a\ncore pays off.)\n"}, err
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// E14 — test-intensity trade-off: sweeping the criticality base interval
// trades test energy against detection latency and silent corruptions.
// The TC'16 "2% of consumed power" sits on this curve.
func (r *Runner) E14() (*Result, error) {
	intervals := []sim.Time{10 * sim.Millisecond, 25 * sim.Millisecond,
		50 * sim.Millisecond, 100 * sim.Millisecond, 200 * sim.Millisecond}
	if r.Quick {
		intervals = []sim.Time{25 * sim.Millisecond, 100 * sim.Millisecond}
	}
	t := metrics.NewTable(
		"E14: criticality base interval vs test cost and detection quality",
		"base-interval", "tests-done", "test-energy(%)",
		"detect-rate(%)", "mean-latency(ms)", "corruptions")
	var cells []cell
	for _, base := range intervals {
		for _, seed := range r.seeds() {
			cfg := r.baseConfig()
			if !r.Quick {
				cfg.Horizon = sim.Second
			}
			cfg.Criticality.BaseInterval = base
			cfg.EnableFaults = true
			cfg.Faults.BaseRatePerSec = 0.1
			cfg.Seed = seed
			cells = append(cells, cell{
				label: fmt.Sprintf("base=%v seed=%d", base, seed), cfg: cfg})
		}
	}
	reports, err := r.runCells("E14", cells)
	k := 0
	for _, base := range intervals {
		if skipNA(t, reports, &k, len(r.seeds()), base.String(), 5) {
			continue
		}
		var done, share, rate, lat, corr float64
		n := 0
		for range r.seeds() {
			rep := reports[k]
			k++
			done += float64(rep.TestsCompleted)
			share += rep.TestEnergyShare
			rate += rep.FaultStats.DetectionRate
			lat += rep.FaultStats.MeanLatency.Millis()
			corr += float64(rep.FaultStats.Corruptions)
			n++
		}
		fn := float64(n)
		t.AddRow(base.String(), done/fn, 100*share/fn, 100*rate/fn, lat/fn, corr/fn)
	}
	return &Result{ID: "E14",
		Title: "Test-intensity knob: energy vs detection latency (the curve the 2% claim sits on)",
		Table: t,
		Extra: "Shape check: shorter target intervals buy faster detection and fewer silent\ncorruptions at higher test energy; the curve is monotone in both directions.\n"}, err
}

// E15 — governor policy: energy-proportional (eco) vs race-to-idle under
// the same budget.
func (r *Runner) E15() (*Result, error) {
	t := metrics.NewTable(
		"E15: per-core governor policy under the default budget",
		"governor", "tput(tasks/s)", "mean-power(W)", "energy-per-task(mJ)",
		"violations(%)", "test-energy(%)")
	governors := []bool{false, true}
	var cells []cell
	for _, race := range governors {
		for _, seed := range r.seeds() {
			cfg := r.baseConfig()
			cfg.GovernorRaceToIdle = race
			cfg.Seed = seed
			cells = append(cells, cell{
				label: fmt.Sprintf("race=%v seed=%d", race, seed), cfg: cfg})
		}
	}
	reports, err := r.runCells("E15", cells)
	k := 0
	for _, race := range governors {
		name := "eco"
		if race {
			name = "race-to-idle"
		}
		if skipNA(t, reports, &k, len(r.seeds()), name, 5) {
			continue
		}
		var tput, power, ept, viol, share float64
		n := 0
		for range r.seeds() {
			rep := reports[k]
			k++
			tput += rep.ThroughputTasksPerSec
			power += rep.MeanPowerW
			if rep.TasksCompleted > 0 {
				ept += 1000 * rep.EnergyJ / float64(rep.TasksCompleted)
			}
			viol += rep.ViolationRate
			share += rep.TestEnergyShare
			n++
		}
		fn := float64(n)
		t.AddRow(name, tput/fn, power/fn, ept/fn, 100*viol/fn, 100*share/fn)
	}
	return &Result{ID: "E15",
		Title: "Eco vs race-to-idle: energy proportionality is what funds the test budget",
		Table: t,
		Extra: "Shape check: race-to-idle buys throughput by ignoring demand, at a higher\nenergy per task and massive cap violations; the eco governor honours the TDP\nand its headroom is exactly the slack POTS tests in.\n"}, err
}

// E16 — analysis vs simulation: the closed-form interval predictor
// (scheduler.PredictMeanInterval) against the measured mean test interval
// across loads.
func (r *Runner) E16() (*Result, error) {
	loads := []sim.Time{8 * sim.Millisecond, 4 * sim.Millisecond,
		2 * sim.Millisecond, sim.Millisecond}
	if r.Quick {
		loads = []sim.Time{4 * sim.Millisecond, sim.Millisecond}
	}
	t := metrics.NewTable(
		"E16: analytic test-interval model vs simulation",
		"interarrival", "idle-frac", "admit-prob", "predicted(ms)",
		"measured(ms)", "ratio")
	var cells []cell
	for _, iat := range loads {
		for _, seed := range r.seeds() {
			cfg := r.baseConfig()
			cfg.MeanInterarrival = iat
			cfg.Seed = seed
			cells = append(cells, cell{
				label: fmt.Sprintf("iat=%v seed=%d", iat, seed), cfg: cfg})
		}
	}
	reports, err := r.runCells("E16", cells)
	k := 0
	for _, iat := range loads {
		if skipNA(t, reports, &k, len(r.seeds()), iat.String(), 5) {
			continue
		}
		var idle, admit, measured, targetMS float64
		n := 0
		var cfg core.Config
		for range r.seeds() {
			cfg = cells[k].cfg
			rep := reports[k]
			k++
			sumIdle, sumTarget := 0.0, 0.0
			for i, f := range rep.PerCoreIdleFrac {
				sumIdle += f
				// Eligibility begins at MinCriticality x the per-core
				// target; the run ends with these stress/util values, so
				// halve them as a mid-run average.
				ti := cfg.Criticality.TargetInterval(
					rep.PerCoreStress[i]/2, rep.PerCoreUtil[i]/2)
				sumTarget += cfg.SchedOptions.MinCriticality * ti.Millis()
			}
			idle += sumIdle / float64(len(rep.PerCoreIdleFrac))
			targetMS += sumTarget / float64(len(rep.PerCoreIdleFrac))
			started := float64(rep.TestsStarted + rep.TestsSkipPower)
			if started > 0 {
				admit += float64(rep.TestsStarted) / started
			}
			if m := rep.MeanTestIntervalMS(); m > 0 {
				measured += m
				n++
			}
		}
		if n == 0 {
			continue
		}
		fn := float64(len(r.seeds()))
		idle /= fn
		admit /= fn
		targetMS /= fn
		measured /= float64(n)

		table := dvfs.NewTable(cfg.Node, cfg.DVFSLevels)
		meanDur := scheduler.MeanRoutineDuration(sbst.Library(), table)
		// A test completes, on average, half a target past eligibility
		// (the scheduler sweeps overdue cores, not a deadline queue) plus
		// the routine itself.
		target := sim.FromSeconds(1.5 * targetMS / 1000)
		pred := scheduler.PredictMeanInterval(target, meanDur, idle, admit)
		ratio := pred.Millis() / measured
		t.AddRow(iat.String(), idle, admit, pred.Millis(), measured, ratio)
	}
	return &Result{ID: "E16",
		Title: "Closed-form capacity model vs simulation (demand/supply argument)",
		Table: t,
		Extra: "Shape check: the closed form captures the demand/supply structure and the\nload trend within a factor ~2. The systematic underestimate is the busy-\nresidual wait it does not model: a core that becomes due mid-task cannot be\ntested (non-intrusiveness) until its task completes, adding roughly half a\ntask length to every interval.\n"}, err
}

// E17 — the off-chip memory bottleneck (DFTS'15 observation): throughput
// and controller utilisation as the controller count shrinks, plus the
// ideal-memory reference.
func (r *Runner) E17() (*Result, error) {
	counts := []int{0, 4, 2, 1}
	t := metrics.NewTable(
		"E17: memory-controller bottleneck (0 = ideal memory)",
		"controllers", "tput(tasks/s)", "mean-rho", "peak-rho",
		"test-energy(%)", "core-util")
	var cells []cell
	for _, mc := range counts {
		for _, seed := range r.seeds() {
			cfg := r.baseConfig()
			cfg.MemControllers = mc
			cfg.Seed = seed
			cells = append(cells, cell{
				label: fmt.Sprintf("controllers=%d seed=%d", mc, seed), cfg: cfg})
		}
	}
	reports, err := r.runCells("E17", cells)
	k := 0
	for _, mc := range counts {
		if skipNA(t, reports, &k, len(r.seeds()), mc, 5) {
			continue
		}
		var tput, meanRho, peakRho, share, util float64
		n := 0
		for range r.seeds() {
			rep := reports[k]
			k++
			tput += rep.ThroughputTasksPerSec
			meanRho += rep.MeanMemRho
			peakRho += rep.PeakMemRho
			share += rep.TestEnergyShare
			util += rep.MeanCoreUtilization
			n++
		}
		fn := float64(n)
		t.AddRow(mc, tput/fn, meanRho/fn, peakRho/fn, 100*share/fn, util/fn)
	}
	return &Result{ID: "E17",
		Title: "Shared-memory bottleneck: fewer controllers, hotter queues, lower throughput",
		Table: t,
		Extra: "Shape check: throughput falls and controller utilisation rises monotonically\nas controllers are removed; ideal memory (0) bounds the achievable rate.\n"}, err
}

// E18 — test segmentation (TC'16 chunking): routine granularity vs abort
// waste and completed test work under heavy preemption.
func (r *Runner) E18() (*Result, error) {
	grains := []int64{0, 200_000, 100_000, 50_000}
	t := metrics.NewTable(
		"E18: test segmentation under heavy preemption (FF mapper, dense arrivals)",
		"segment-cycles", "tests-started", "tests-completed", "tests-aborted",
		"abort-waste(%)", "test-energy(%)")
	var cells []cell
	for _, g := range grains {
		for _, seed := range r.seeds() {
			cfg := r.baseConfig()
			cfg.MeanInterarrival = sim.Millisecond
			cfg.MapperName = "FF"
			cfg.TestSegmentCycles = g
			cfg.Seed = seed
			cells = append(cells, cell{
				label: fmt.Sprintf("segment=%d seed=%d", g, seed), cfg: cfg})
		}
	}
	reports, err := r.runCells("E18", cells)
	k := 0
	for _, g := range grains {
		label := "off"
		if g > 0 {
			label = fmt.Sprintf("%dk", g/1000)
		}
		if skipNA(t, reports, &k, len(r.seeds()), label, 5) {
			continue
		}
		var started, done, aborted, share float64
		n := 0
		for range r.seeds() {
			rep := reports[k]
			k++
			started += float64(rep.TestsStarted)
			done += float64(rep.TestsCompleted)
			aborted += float64(rep.TestsAborted)
			share += rep.TestEnergyShare
			n++
		}
		fn := float64(n)
		waste := 0.0
		if started > 0 {
			waste = 100 * aborted / started
		}
		t.AddRow(label, started/fn, done/fn, aborted/fn, waste, 100*share/fn)
	}
	return &Result{ID: "E18",
		Title: "Segmented tests survive preemption: smaller chunks, less wasted test work",
		Table: t,
		Extra: "Shape check: abort waste falls monotonically with the segment size while\ncompleted test work rises; coverage accounting is preserved across segments\n(each segment carries its share of the routine's fault coverage).\n"}, err
}

// E19 — large-mesh scaling: the dark-silicon story where the paper says
// it matters, at hundreds to thousands of cores. Each mesh size runs
// POTS against the no-test reference with arrivals and memory capacity
// scaled with core count (as in E6), reporting the dark fraction the
// technology model forces, the test-induced throughput penalty, and the
// test energy share. Quick mode stops at 32x32; the full suite adds the
// 64x64 (4096-core) maximum geometry. Each cell runs its epoch loop
// serially; the cells themselves fan out across Workers. Splitting one
// cell's per-core layers across goroutines was measured slower than
// serial at 32x32 and 64x64 (DESIGN.md, "Why the epoch loop is serial").
func (r *Runner) E19() (*Result, error) {
	type size struct{ w, h int }
	sizes := []size{{16, 16}, {32, 32}, {64, 64}}
	if r.Quick {
		sizes = []size{{16, 16}, {32, 32}}
	}
	t := metrics.NewTable(
		"E19: dark silicon and test overhead at large mesh sizes (16nm, TDP 35% of peak)",
		"mesh", "cores", "dark-frac(%)", "tput-ref(tasks/s)",
		"penalty-POTS(%)", "test-energy(%)", "core-util")
	var cells []cell
	for _, sz := range sizes {
		for _, pol := range []core.TestPolicyKind{core.PolicyNoTest, core.PolicyPOTS} {
			cfg := r.baseConfig()
			cfg.Width, cfg.Height = sz.w, sz.h
			cfg.TestPolicy = pol
			cfg.Seed = r.seeds()[0]
			cores := sz.w * sz.h
			cfg.MeanInterarrival = sim.Time(int64(2*sim.Millisecond) * 64 / int64(cores))
			cfg.MemCapacityHz *= float64(cores) / 64 // interfaces scale with integration
			cells = append(cells, cell{
				label: fmt.Sprintf("mesh=%dx%d policy=%s", sz.w, sz.h, pol), cfg: cfg})
		}
	}
	reports, err := r.runCells("E19", cells)
	for i, sz := range sizes {
		ref, pots := reports[2*i], reports[2*i+1]
		label := fmt.Sprintf("%dx%d", sz.w, sz.h)
		if ref == nil || pots == nil {
			naRow(t, label, 6)
			continue
		}
		cores := sz.w * sz.h
		cfg := cells[2*i].cfg
		penalty := 0.0
		if ref.ThroughputTasksPerSec > 0 {
			penalty = 100 * (ref.ThroughputTasksPerSec - pots.ThroughputTasksPerSec) /
				ref.ThroughputTasksPerSec
		}
		t.AddRow(label, cores,
			100*cfg.Node.DarkFraction(cfg.TDP(), cores),
			ref.ThroughputTasksPerSec, penalty,
			100*pots.TestEnergyShare, pots.MeanCoreUtilization)
	}
	return &Result{ID: "E19",
		Title: "Large meshes: dark-silicon testing holds its contract to 4096 cores",
		Table: t,
		Extra: "Paper claims C1-C3 at scale: with the TDP held at a fixed fraction of\npeak, ~65% of each die stays dark at every size, so the absolute dark\narea (and the idle power slack the scheduler spends on tests) grows\nlinearly with integration - while the test throughput penalty stays\nbounded (<1%) and test energy stays ~1% of consumption out to 64x64.\nE7 covers the fixed-package-TDP axis where the dark fraction itself\nrises; this table is the scale-out companion.\n"}, err
}
