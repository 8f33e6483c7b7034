package dse

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"potsim/internal/batch"
	"potsim/internal/checkpoint"
	"potsim/internal/core"
	"potsim/internal/expt"
	"potsim/internal/metrics"
	"potsim/internal/sim"
)

// Engine runs one campaign. Zero values select conservative defaults;
// only Spec and Dir are mandatory.
type Engine struct {
	// Spec is the campaign definition; Dir is the durable state
	// directory holding the per-stage journals (and nothing else the
	// engine depends on — the journals are the whole resume state).
	Spec *Spec
	Dir  string

	// Resume reuses the journals already in Dir; without it they are
	// removed and the campaign starts from scratch.
	Resume bool

	// Workers bounds concurrently running cells (<=0: GOMAXPROCS).
	// Worker count never affects results, only wall-clock time.
	Workers int

	// GuardPolicy overrides the per-cell runtime invariant policy
	// ("" keeps the core default: stop the cell at the first violation,
	// which the engine then quarantines as class "guard").
	GuardPolicy string

	// CellTimeout is the per-cell watchdog, applied around the whole
	// cell: its policy run plus its NoTest reference run, which runs only
	// when the stage has not run it already. A failed cell is not
	// retried: a cell runs in memory, so every failure it can have
	// (config validation, the report sanity gate, a panic, a timeout, a
	// guard violation) repeats identically, and the engine quarantines
	// it at once.
	CellTimeout time.Duration

	// Chaos, when set, injects failures into matching cells (tests and
	// the CI smoke only).
	Chaos *expt.Chaos

	// StoreDir, when non-empty, receives one result store per stage
	// (StoreDir/screen.csv, StoreDir/full.csv — see internal/results)
	// holding every cell's outcome, quarantined gaps included. Each
	// stage's store is rewritten whole when the stage completes, so it
	// is resume-safe by construction; the journals in Dir remain the
	// system of record for partial progress.
	StoreDir string

	// Stderr receives progress lines (nil: discarded). StatusPath, when
	// non-empty, is atomically rewritten with a Status JSON document on
	// the same cadence.
	Stderr     io.Writer
	StatusPath string

	mu          sync.Mutex
	stage       string
	stageStart  time.Time
	lastReport  time.Time
	quarantined int64
}

// Status is the machine-readable progress document written to
// Engine.StatusPath.
type Status struct {
	Campaign    string  `json:"campaign"`
	Stage       string  `json:"stage"`
	DoneCells   int     `json:"doneCells"`
	TotalCells  int     `json:"totalCells"`
	Quarantined int64   `json:"quarantined"`
	ElapsedSec  float64 `json:"elapsedSec"`
	ETASec      float64 `json:"etaSec"`
	CellsPerSec float64 `json:"cellsPerSec"`
}

// CellMetrics is the journaled outcome of one successful cell: the
// handful of aggregates the frontier, the report and the result store
// need, never the full report — outcome storage stays bounded however
// large the space is, and cell coordinates are regenerated from the
// index on demand. DetectLatencyMS (mean fault-detection latency, 0
// when nothing was detected) is stored but is not an objective.
type CellMetrics struct {
	PenaltyPct      float64 `json:"penaltyPct"`
	CoveragePct     float64 `json:"coveragePct"`
	PeakTempK       float64 `json:"peakTempK"`
	HeadroomW       float64 `json:"headroomW"`
	MeanPowerW      float64 `json:"meanPowerW"`
	TDPWatts        float64 `json:"tdpWatts"`
	TestEnergyPct   float64 `json:"testEnergyPct"`
	TasksPerSec     float64 `json:"tasksPerSec"`
	DetectLatencyMS float64 `json:"detectLatencyMS"`
}

// Objectives maps the metrics onto the minimised objective vector. The
// throughput penalty is clamped at zero: a cell that happened to beat
// its own no-test baseline is "no penalty", not a negative cost that
// would let measurement noise dominate the frontier.
func (m *CellMetrics) Objectives() Objectives {
	pen := m.PenaltyPct
	if pen < 0 {
		pen = 0
	}
	return Objectives{pen, -m.CoveragePct, m.PeakTempK, -m.HeadroomW}
}

// cellOutcome is one journal payload: exactly one of M (success) or Q
// (quarantined) is set. Quarantine verdicts are journaled like results,
// so a resumed campaign never re-runs a cell that already proved itself
// poisonous.
type cellOutcome struct {
	M *CellMetrics     `json:"m,omitempty"`
	Q *QuarantineEntry `json:"q,omitempty"`
}

// FrontierRow is one Pareto-optimal cell of the final frontier.
type FrontierRow struct {
	Point   Point
	Metrics CellMetrics
	Obj     Objectives
}

// Result is the campaign's outcome: the frontier over every cell that
// completed the final stage, plus the quarantine record of every cell
// that did not.
type Result struct {
	Spec       *Spec
	Total      int64 // cells in the enumerated space
	Screened   int64 // cells run at the screening horizon (0: no screen)
	Survivors  int64 // cells that graduated to the full horizon
	Frontier   []FrontierRow
	Quarantine QuarantineReport

	// Simulations counts the expt.ExecuteCell runs this invocation
	// completed, policy and reference runs alike; cells served from a
	// journal add none.
	Simulations int64

	space *Space
}

// Run executes (or resumes) the campaign to completion. The returned
// error is reserved for infrastructure failures — a cancelled context,
// an unusable journal, a spec mismatch; poisoned cells are not errors,
// they are quarantine entries in the Result.
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.Spec == nil {
		return nil, fmt.Errorf("dse: the campaign engine needs a spec")
	}
	if e.Dir == "" {
		return nil, fmt.Errorf("dse: the campaign engine needs a state directory")
	}
	space, err := NewSpace(e.Spec)
	if err != nil {
		return nil, err
	}
	fp, err := e.Spec.Fingerprint()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.Dir, 0o755); err != nil {
		return nil, err
	}
	if e.StoreDir != "" {
		// A kill mid-write leaves a temp file beside the stores; the
		// stores themselves are whole, so the droppings just go.
		if err := os.MkdirAll(e.StoreDir, 0o755); err != nil {
			return nil, err
		}
		if _, err := checkpoint.CleanTemps(e.StoreDir); err != nil {
			return nil, err
		}
	}
	if !e.Resume {
		for _, name := range []string{"screen.journal", "full.journal"} {
			if err := os.Remove(filepath.Join(e.Dir, name)); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
	}

	res := &Result{
		Spec:       e.Spec,
		Total:      space.Count(),
		Quarantine: QuarantineReport{Campaign: e.Spec.Name},
		space:      space,
	}

	// Screening rung: every cell at the short horizon, then rank-peel
	// the survivors. Quarantined cells are gaps, not survivors.
	var survivors []int64 // nil: the full space
	if e.Spec.Screen != nil {
		screenH := sim.FromSeconds(e.Spec.Screen.HorizonMS / 1000)
		outcomes, sims, err := e.runStage(ctx, space, fp, "screen", screenH, nil)
		if err != nil {
			return nil, err
		}
		res.Simulations += sims
		entries := make([]Entry, 0, len(outcomes))
		for i, out := range outcomes {
			switch {
			case out.Q != nil:
				res.Quarantine.Cells = append(res.Quarantine.Cells, *out.Q)
			case out.M != nil:
				entries = append(entries, Entry{Index: int64(i), Obj: out.M.Objectives()})
			default:
				return nil, fmt.Errorf("dse: screen cell %d has an empty journal outcome", i)
			}
		}
		survivors = Peel(entries, e.Spec.keepRanks())
		if survivors == nil {
			survivors = []int64{} // no survivors, not the whole space
		}
		res.Screened = res.Total
		res.Survivors = int64(len(survivors))
	} else {
		res.Survivors = res.Total
	}

	fullH := sim.FromSeconds(e.Spec.HorizonMS / 1000)
	outcomes, sims, err := e.runStage(ctx, space, fp, "full", fullH, survivors)
	if err != nil {
		return nil, err
	}
	res.Simulations += sims
	var fr Frontier
	byIndex := make(map[int64]*CellMetrics, len(outcomes))
	for i, out := range outcomes {
		global := int64(i)
		if survivors != nil {
			global = survivors[i]
		}
		switch {
		case out.Q != nil:
			res.Quarantine.Cells = append(res.Quarantine.Cells, *out.Q)
		case out.M != nil:
			byIndex[global] = out.M
			if err := fr.Insert(Entry{Index: global, Obj: out.M.Objectives()}); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("dse: full-stage cell %d has an empty journal outcome", global)
		}
	}
	for _, m := range fr.Members() {
		res.Frontier = append(res.Frontier, FrontierRow{
			Point:   space.Point(m.Index),
			Metrics: *byIndex[m.Index],
			Obj:     m.Obj,
		})
	}
	sort.Slice(res.Quarantine.Cells, func(i, j int) bool {
		return res.Quarantine.Cells[i].Index < res.Quarantine.Cells[j].Index
	})
	e.finish(res)
	return res, nil
}

// stageMeta fingerprints one stage for its journal: the CellMetrics
// schema version, spec content hash, stage name, horizon, cell count,
// guard policy and (for the full stage) the survivor set. The schema
// token makes a journal written before a metric was added fail to
// resume instead of replaying that metric as zero. Workers are
// deliberately absent — they do not affect results, and a campaign must
// be resumable under a different parallelism than it was started with.
func (e *Engine) stageMeta(fp, stage string, horizon sim.Time, n int, survivors []int64) string {
	meta := fmt.Sprintf("dse metrics=2 campaign=%s spec=%s stage=%s horizon=%d n=%d guard=%q",
		e.Spec.Name, fp, stage, int64(horizon), n, e.GuardPolicy)
	if survivors != nil {
		h := sha256.New()
		for _, idx := range survivors {
			fmt.Fprintf(h, "%d,", idx)
		}
		meta += fmt.Sprintf(" survivors=%x", h.Sum(nil)[:12])
	}
	return meta
}

// runStage executes one rung of the campaign over the given cell
// indexes (nil: the whole space) at the given horizon, journaling every
// verdict, and returns the outcomes with the number of simulations the
// stage ran. The outcome slice is positional: outcome i belongs to
// indexes[i] (or global cell i when indexes is nil).
func (e *Engine) runStage(ctx context.Context, space *Space, fp, stage string, horizon sim.Time, indexes []int64) (outcomes []cellOutcome, sims int64, retErr error) {
	n := int(space.Count())
	if indexes != nil {
		n = len(indexes)
	}
	path := filepath.Join(e.Dir, stage+".journal")
	meta := e.stageMeta(fp, stage, horizon, n, indexes)
	j, cached, err := batch.OpenJournal(path, meta)
	if err != nil {
		return nil, 0, err
	}
	// A close failure means the last fsync'd state of the journal is in
	// doubt: surface it as a stage error, never drop it.
	defer func() {
		if cerr := j.Close(); cerr != nil {
			retErr = errors.Join(retErr, fmt.Errorf("dse: closing %s journal: %w", stage, cerr))
		}
	}()

	e.beginStage(stage, n, len(cached))
	runs := &stageRuns{noTest: make(map[string]CellMetrics)}

	cellOpts := batch.Options{CellTimeout: e.CellTimeout}
	mapOpts := batch.Options{
		Workers:    e.Workers,
		OnCellDone: func(done, total int) { e.report(done, total, false) },
	}
	outcomes, err = batch.MapJournaled(ctx, mapOpts, n, j, cached,
		func(cctx context.Context, i int) (cellOutcome, error) {
			global := int64(i)
			if indexes != nil {
				global = indexes[i]
			}
			p := space.Point(global)
			m, err := e.runCellPair(cctx, space, p, horizon, cellOpts, runs)
			if err != nil {
				if cctx.Err() != nil {
					// Interrupted, not poisoned: leave the cell unjournaled
					// so a resume re-runs it.
					return cellOutcome{}, err
				}
				e.noteQuarantine()
				return cellOutcome{Q: &QuarantineEntry{
					Index: global,
					Label: p.Label(),
					Stage: stage,
					Class: classifyQuarantine(err),
					Error: flattenError(err),
				}}, nil
			}
			return cellOutcome{M: m}, nil
		})
	if err != nil {
		return nil, 0, fmt.Errorf("dse: campaign stage %s: %w", stage, err)
	}
	if e.StoreDir != "" {
		if err := e.writeStageStore(space, stage, indexes, outcomes); err != nil {
			return nil, 0, fmt.Errorf("dse: stage %s result store: %w", stage, err)
		}
	}
	e.report(n, n, true)
	return outcomes, runs.sims.Load(), nil
}

// runCellPair runs one cell — the policy run plus, for testing
// policies, the NoTest reference run that anchors the throughput
// penalty — under the per-cell watchdog. A NoTest run is
// simulated only when the stage has not run it already (see
// stageRuns). Chaos injection (when armed) targets only the policy run,
// so a targeted notest cell simulates its own; the reference is an
// internal detail of the penalty metric.
func (e *Engine) runCellPair(ctx context.Context, space *Space, p Point, horizon sim.Time, opts batch.Options, runs *stageRuns) (*CellMetrics, error) {
	return batch.Run(ctx, opts, func(ctx context.Context) (*CellMetrics, error) {
		cfg := e.cellConfig(space, p, horizon)
		if p.Policy == core.PolicyNoTest && !e.Chaos.Targets(p.Label()) {
			m, err := runs.noTestRun(ctx, cfg)
			if err != nil {
				return nil, err
			}
			return &m, nil
		}
		rep, err := e.Chaos.Run(ctx, p.Label(), func() (*core.Report, error) {
			return runs.execute(ctx, cfg)
		})
		if err != nil {
			return nil, err
		}
		// ExecuteCell sanity-gates the genuine run; re-check here so a
		// chaos-poisoned report (nan mode) cannot reach the frontier.
		if serr := rep.Sanity(); serr != nil {
			return nil, fmt.Errorf("dse: cell %s failed post-run sanity: %w", p.Label(), serr)
		}
		var ref *core.Report
		if p.Policy != core.PolicyNoTest {
			refCfg := e.cellConfig(space, p, horizon)
			refCfg.TestPolicy = core.PolicyNoTest
			refM, err := runs.noTestRun(ctx, refCfg)
			if err != nil {
				return nil, fmt.Errorf("dse: cell %s reference notest run: %w", p.Label(), err)
			}
			ref = &core.Report{ThroughputTasksPerSec: refM.TasksPerSec}
		}
		m := cellMetrics(rep, ref)
		return &m, nil
	})
}

// cellMetrics condenses a finished run into its cell's metrics. ref
// carries the NoTest reference's throughput, all ThroughputPenalty
// reads; the notest cell has none (nil) and no penalty.
func cellMetrics(rep, ref *core.Report) CellMetrics {
	return CellMetrics{
		PenaltyPct:      100 * rep.ThroughputPenalty(ref),
		CoveragePct:     100 * rep.LevelCoverage,
		PeakTempK:       rep.PeakTempK,
		HeadroomW:       rep.TDPWatts - rep.MeanPowerW,
		MeanPowerW:      rep.MeanPowerW,
		TDPWatts:        rep.TDPWatts,
		TestEnergyPct:   100 * rep.TestEnergyShare,
		TasksPerSec:     rep.ThroughputTasksPerSec,
		DetectLatencyMS: rep.FaultStats.MeanLatency.Millis(),
	}
}

// stageRuns is one stage's simulation ledger: the count of runs it
// completed, and the NoTest memo — the metrics of every NoTest run the
// stage finished, keyed by core.ConfigHash of its config. The memo
// holds values, never a *core.Report a caller could mutate (chaos nan
// poisons the report it is handed), and at most one entry per stage
// cell, so it is dropped with the stage and bounded like its outcomes.
type stageRuns struct {
	sims   atomic.Int64
	mu     sync.Mutex
	noTest map[string]CellMetrics
}

// execute runs one simulation, counting it when it completes.
func (r *stageRuns) execute(ctx context.Context, cfg core.Config) (*core.Report, error) {
	rep, err := expt.ExecuteCell(ctx, cfg, expt.CellOptions{})
	if err == nil {
		r.sims.Add(1)
	}
	return rep, err
}

// noTestRun returns the metrics of the NoTest run of cfg, simulating it
// only on a memo miss. The simulator is deterministic, so a hit is
// bit-exact. There is no single-flight: workers that miss one key
// together both run it and the first store wins, so no cell waits on
// another's run and each watchdog times only its own cell's work. A
// failed run is not stored; the next cell that needs it runs it again
// and reaches the same verdict.
func (r *stageRuns) noTestRun(ctx context.Context, cfg core.Config) (CellMetrics, error) {
	key, err := core.ConfigHash(cfg)
	if err != nil {
		return CellMetrics{}, err
	}
	r.mu.Lock()
	m, ok := r.noTest[key]
	r.mu.Unlock()
	if ok {
		return m, nil
	}
	rep, err := r.execute(ctx, cfg)
	if err != nil {
		return CellMetrics{}, err
	}
	m = cellMetrics(rep, nil)
	r.mu.Lock()
	if _, ok := r.noTest[key]; !ok {
		r.noTest[key] = m
	}
	r.mu.Unlock()
	return m, nil
}

// cellConfig builds the cell's config with the engine's overrides.
func (e *Engine) cellConfig(space *Space, p Point, horizon sim.Time) core.Config {
	cfg := space.Config(p, horizon)
	if e.GuardPolicy != "" {
		cfg.GuardPolicy = e.GuardPolicy
	}
	return cfg
}

// flattenError renders an aggregated attempt error for the quarantine
// record, bounded so a panic stack cannot bloat the journal.
func flattenError(err error) string {
	const limit = 500
	s := err.Error()
	if len(s) > limit {
		s = s[:limit] + "... (truncated)"
	}
	return s
}

// beginStage resets the progress clock for a stage.
func (e *Engine) beginStage(stage string, total, cached int) {
	e.mu.Lock()
	e.stage = stage
	e.stageStart = time.Now()
	e.lastReport = time.Time{}
	e.mu.Unlock()
	if w := e.Stderr; w != nil {
		fmt.Fprintf(w, "dse: %s: stage %s: %d cells (%d already journaled)\n",
			e.Spec.Name, stage, total, cached)
	}
}

// noteQuarantine counts one poisoned cell for the progress stream.
func (e *Engine) noteQuarantine() {
	e.mu.Lock()
	e.quarantined++
	e.mu.Unlock()
}

// report emits progress to stderr and the status file, rate-limited to
// roughly once a second unless final forces it.
func (e *Engine) report(done, total int, final bool) {
	e.mu.Lock()
	now := time.Now()
	if !final && now.Sub(e.lastReport) < time.Second {
		e.mu.Unlock()
		return
	}
	e.lastReport = now
	st := Status{
		Campaign:    e.Spec.Name,
		Stage:       e.stage,
		DoneCells:   done,
		TotalCells:  total,
		Quarantined: e.quarantined,
		ElapsedSec:  now.Sub(e.stageStart).Seconds(),
	}
	e.mu.Unlock()
	if st.ElapsedSec > 0 {
		st.CellsPerSec = float64(done) / st.ElapsedSec
	}
	if st.CellsPerSec > 0 {
		st.ETASec = float64(total-done) / st.CellsPerSec
	}
	if w := e.Stderr; w != nil {
		fmt.Fprintf(w, "dse: %s: stage %s: %d/%d cells, %d quarantined, %.1f cells/s, ETA %.0fs\n",
			st.Campaign, st.Stage, st.DoneCells, st.TotalCells,
			st.Quarantined, st.CellsPerSec, st.ETASec)
	}
	e.writeStatus(st)
}

// finish emits the terminal status document and quarantine digest.
func (e *Engine) finish(res *Result) {
	e.mu.Lock()
	st := Status{
		Campaign:    e.Spec.Name,
		Stage:       "done",
		DoneCells:   int(res.Survivors),
		TotalCells:  int(res.Survivors),
		Quarantined: int64(len(res.Quarantine.Cells)),
		ElapsedSec:  time.Since(e.stageStart).Seconds(),
	}
	e.mu.Unlock()
	if w := e.Stderr; w != nil {
		fmt.Fprintf(w, "dse: %s: done: %d-cell frontier from %d cells, %d simulations, %s\n",
			res.Spec.Name, len(res.Frontier), res.Total, res.Simulations, res.Quarantine.Summary())
	}
	e.writeStatus(st)
}

// writeStatus atomically rewrites the status file, when configured.
// Status failures are deliberately non-fatal: observability must never
// kill a campaign.
func (e *Engine) writeStatus(st Status) {
	if e.StatusPath == "" {
		return
	}
	blob, err := json.Marshal(st)
	if err != nil {
		return
	}
	if err := checkpoint.WriteFileAtomic(e.StatusPath, append(blob, '\n'), 0o644); err != nil {
		if w := e.Stderr; w != nil {
			fmt.Fprintf(w, "dse: status file: %v\n", err)
		}
	}
}

// csvHeaders is the frontier report schema: cell coordinates, verdict,
// then the outcome metrics (or n/a on quarantine gap rows).
var csvHeaders = []string{
	"cell", "mesh", "node", "tdpFraction", "intervalMS", "policy", "seed", "status",
	"penaltyPct", "coveragePct", "peakTempK", "headroomW",
	"meanPowerW", "tdpWatts", "testEnergyPct", "tasksPerSec",
}

// Table renders the campaign outcome: one row per frontier member plus
// one explicit gap row per quarantined cell, merged in cell order. Its
// CSV form is the campaign's byte-identity contract — a pure function
// of the spec and the simulation results, independent of workers,
// interruptions and wall-clock.
func (r *Result) Table() *metrics.Table {
	t := metrics.NewTable(fmt.Sprintf(
		"DSE campaign %s: Pareto frontier (%d of %d cells, %d survivors, %d quarantined)",
		r.Spec.Name, len(r.Frontier), r.Total, r.Survivors, len(r.Quarantine.Cells)),
		csvHeaders...)
	type row struct {
		index int64
		cells []any
	}
	rows := make([]row, 0, len(r.Frontier)+len(r.Quarantine.Cells))
	for _, fr := range r.Frontier {
		p, m := fr.Point, fr.Metrics
		rows = append(rows, row{p.Index, []any{
			p.Index, p.Mesh, p.Node.Name, p.TDPFraction, p.BaseInterval.Millis(),
			string(p.Policy), p.Seed, "pareto",
			m.PenaltyPct, m.CoveragePct, m.PeakTempK, m.HeadroomW,
			m.MeanPowerW, m.TDPWatts, m.TestEnergyPct, m.TasksPerSec,
		}})
	}
	for _, q := range r.Quarantine.Cells {
		p := r.space.Point(q.Index)
		rows = append(rows, row{p.Index, []any{
			p.Index, p.Mesh, p.Node.Name, p.TDPFraction, p.BaseInterval.Millis(),
			string(p.Policy), p.Seed, "quarantined:" + q.Class,
			"n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a",
		}})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].index < rows[j].index })
	for _, rw := range rows {
		t.AddRow(rw.cells...)
	}
	return t
}

// CSV is the frontier report in comma-separated form.
func (r *Result) CSV() string { return r.Table().CSV() }
