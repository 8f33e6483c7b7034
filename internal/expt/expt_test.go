package expt

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"potsim/internal/sim"
)

// quickRunner shares results between tests of the same experiment.
func quickRunner() *Runner { return &Runner{Quick: true} }

func TestIDsDispatch(t *testing.T) {
	r := quickRunner()
	if _, err := r.Run("nope"); err == nil {
		t.Error("unknown id accepted")
	}
	if len(IDs()) != 19 {
		t.Errorf("expected 19 experiments, got %d", len(IDs()))
	}
}

func TestRenderContainsTitleAndTable(t *testing.T) {
	res := &Result{ID: "EX", Title: "demo", Extra: "note\n"}
	out := res.Render()
	if !strings.Contains(out, "EX") || !strings.Contains(out, "demo") ||
		!strings.Contains(out, "note") {
		t.Errorf("render incomplete: %q", out)
	}
}

func TestE1Shape(t *testing.T) {
	res, err := quickRunner().E1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("E1 has %d rows, want 4 load points", len(res.Table.Rows))
	}
	if len(res.Table.Headers) != 6 {
		t.Errorf("E1 header count %d", len(res.Table.Headers))
	}
}

func TestE2TraceNonEmptyAndCapped(t *testing.T) {
	res, err := quickRunner().E2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) < 10 {
		t.Fatalf("E2 trace has only %d points", len(res.Table.Rows))
	}
	if !strings.Contains(res.Extra, "test energy share") {
		t.Error("E2 missing energy-share summary")
	}
}

func TestE3ReportsBothHalves(t *testing.T) {
	res, err := quickRunner().E3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) == 0 {
		t.Fatal("E3 empty")
	}
	if !strings.Contains(res.Extra, "tests-per-idle-second") {
		t.Error("E3 missing the adaptation summary")
	}
}

func TestE4OneRowPerLevel(t *testing.T) {
	res, err := quickRunner().E4()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 8 {
		t.Errorf("E4 has %d rows, want 8 levels", len(res.Table.Rows))
	}
}

func TestE5CoversAllMappers(t *testing.T) {
	res, err := quickRunner().E5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 5 {
		t.Fatalf("E5 has %d rows, want 5 mappers", len(res.Table.Rows))
	}
	seen := map[string]bool{}
	for _, row := range res.Table.Rows {
		seen[row[0]] = true
	}
	for _, m := range []string{"FF", "NN", "CoNA", "MapPro", "TUM"} {
		if !seen[m] {
			t.Errorf("E5 missing mapper %s", m)
		}
	}
}

func TestE6E7QuickSizes(t *testing.T) {
	r := quickRunner()
	e6, err := r.E6()
	if err != nil {
		t.Fatal(err)
	}
	if len(e6.Table.Rows) != 2 {
		t.Errorf("quick E6 has %d rows, want 2", len(e6.Table.Rows))
	}
	e7, err := r.E7()
	if err != nil {
		t.Fatal(err)
	}
	if len(e7.Table.Rows) != 2 {
		t.Errorf("quick E7 has %d rows, want 2", len(e7.Table.Rows))
	}
}

func TestE8IncludesNoTest(t *testing.T) {
	res, err := quickRunner().E8()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Table.Rows {
		if row[0] == "notest" {
			found = true
			if row[2] != "0" {
				t.Errorf("NoTest detected %s faults, want 0", row[2])
			}
		}
	}
	if !found {
		t.Error("E8 missing the notest row")
	}
}

func TestE9AndE10Run(t *testing.T) {
	r := quickRunner()
	e9, err := r.E9()
	if err != nil {
		t.Fatal(err)
	}
	if len(e9.Table.Rows) != 2 {
		t.Errorf("quick E9 has %d rows, want 2", len(e9.Table.Rows))
	}
	e10, err := r.E10()
	if err != nil {
		t.Fatal(err)
	}
	if len(e10.Table.Rows) != 5 {
		t.Errorf("E10 has %d rows, want 5 variants", len(e10.Table.Rows))
	}
}

func TestRunnerDeterminism(t *testing.T) {
	a, err := quickRunner().E4()
	if err != nil {
		t.Fatal(err)
	}
	b, err := quickRunner().E4()
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.CSV() != b.Table.CSV() {
		t.Error("same-seed experiment runs differ")
	}
}

// TestCellDeterminism runs the same (config, seed) cell twice
// sequentially and once through the parallel pool: all three reports
// must be deep-equal, proving a core.System run is a pure function of
// its config and safe to fan out.
func TestCellDeterminism(t *testing.T) {
	r := quickRunner()
	cfg := r.baseConfig()
	cfg.Seed = 7
	cfg.EnableFaults = true

	seq1, err := r.run(context.Background(), "det", 0, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := r.run(context.Background(), "det", 0, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq1, seq2) {
		t.Fatal("two sequential runs of the same cell differ: simulation is not deterministic")
	}

	pool := &Runner{Quick: true, Workers: 4}
	// Surround the cell of interest with siblings so it actually runs
	// concurrently with other simulations.
	cells := make([]cell, 8)
	for i := range cells {
		c := cfg
		if i != 3 {
			c.Seed = uint64(100 + i)
		}
		cells[i] = cell{label: fmt.Sprintf("cell%d", i), cfg: c}
	}
	reports, err := pool.runCells("det", cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq1, reports[3]) {
		t.Error("parallel-pool run of the same cell differs from the sequential run")
	}
}

// TestE1GoldenAcrossWorkerCounts is the reproducibility guarantee in
// one assertion: E1's rendered output is byte-identical whether cells
// run sequentially or on an 8-wide pool.
func TestE1GoldenAcrossWorkerCounts(t *testing.T) {
	seq, err := (&Runner{Quick: true, Workers: 1}).E1()
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&Runner{Quick: true, Workers: 8}).E1()
	if err != nil {
		t.Fatal(err)
	}
	if seq.Render() != par.Render() {
		t.Errorf("E1 output depends on worker count:\n-- workers=1 --\n%s\n-- workers=8 --\n%s",
			seq.Render(), par.Render())
	}
}

// TestRunnerProgressCounts: the progress callback sees every cell of an
// experiment exactly once and reports a stable total.
func TestRunnerProgressCounts(t *testing.T) {
	var mu sync.Mutex
	done, total := 0, 0
	r := &Runner{Quick: true, Workers: 2,
		Progress: func(id string, d, n int) {
			if id != "E5" {
				t.Errorf("progress for unexpected experiment %q", id)
			}
			mu.Lock()
			done++
			total = n
			mu.Unlock()
		}}
	if _, err := r.E5(); err != nil {
		t.Fatal(err)
	}
	// Quick mode: 5 mappers x 1 seed.
	if done != 5 || total != 5 {
		t.Errorf("progress saw %d/%d cells, want 5/5", done, total)
	}
}

// TestRunnerCancelledContext: a pre-cancelled context aborts the batch
// with a context error instead of running the cells.
func TestRunnerCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Quick: true, Workers: 2, Ctx: ctx}
	if _, err := r.E5(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestCellErrorCarriesLabel: an invalid cell reports which sweep point
// failed, and sibling failures are aggregated rather than first-wins.
func TestCellErrorCarriesLabel(t *testing.T) {
	r := quickRunner()
	good := r.baseConfig()
	bad := r.baseConfig()
	bad.DVFSLevels = 1 // rejected by core.Config.Validate
	bad2 := r.baseConfig()
	bad2.MeanInterarrival = -sim.Millisecond
	_, err := r.runCells("EX", []cell{
		{label: "good", cfg: good},
		{label: "point-a", cfg: bad},
		{label: "point-b", cfg: bad2},
	})
	if err == nil {
		t.Fatal("invalid cells accepted")
	}
	for _, want := range []string{"EX", "point-a", "point-b"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestBaseSeedChangesResults(t *testing.T) {
	a, err := (&Runner{Quick: true, BaseSeed: 0}).E4()
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Runner{Quick: true, BaseSeed: 100}).E4()
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.CSV() == b.Table.CSV() {
		t.Error("different base seeds produced identical tables (suspicious)")
	}
}

func TestE11BothModes(t *testing.T) {
	res, err := quickRunner().E11()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("E11 has %d rows, want txn + flit", len(res.Table.Rows))
	}
	if !strings.Contains(res.Extra, "deviation") {
		t.Error("E11 missing deviation summary")
	}
}

func TestE12BothCappers(t *testing.T) {
	res, err := quickRunner().E12()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("E12 has %d rows, want aware + blind", len(res.Table.Rows))
	}
}

func TestE13CoversAllMappers(t *testing.T) {
	res, err := quickRunner().E13()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("E13 has %d rows, want 4 mappers", len(res.Table.Rows))
	}
}

func TestE14AndE15Run(t *testing.T) {
	r := quickRunner()
	e14, err := r.E14()
	if err != nil {
		t.Fatal(err)
	}
	if len(e14.Table.Rows) != 2 {
		t.Errorf("quick E14 has %d rows, want 2", len(e14.Table.Rows))
	}
	e15, err := r.E15()
	if err != nil {
		t.Fatal(err)
	}
	if len(e15.Table.Rows) != 2 {
		t.Errorf("E15 has %d rows, want eco + race", len(e15.Table.Rows))
	}
}

func TestE16PredictsWithinFactorTwo(t *testing.T) {
	res, err := quickRunner().E16()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) == 0 {
		t.Fatal("E16 empty")
	}
	for _, row := range res.Table.Rows {
		var ratio float64
		if _, err := fmt.Sscanf(row[5], "%g", &ratio); err != nil {
			t.Fatalf("unparseable ratio %q", row[5])
		}
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("prediction ratio %v outside sanity band at %s", ratio, row[0])
		}
	}
}

func TestE17MemoryBottleneck(t *testing.T) {
	res, err := quickRunner().E17()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("E17 has %d rows", len(res.Table.Rows))
	}
}

func TestE18SegmentGrains(t *testing.T) {
	res, err := quickRunner().E18()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("E18 has %d rows", len(res.Table.Rows))
	}
	if res.Table.Rows[0][0] != "off" {
		t.Errorf("first row should be the unsegmented baseline, got %q", res.Table.Rows[0][0])
	}
}

func TestE19LargeMeshes(t *testing.T) {
	res, err := quickRunner().E19()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("E19 quick mode has %d rows, want 16x16 + 32x32", len(res.Table.Rows))
	}
	if res.Table.Rows[0][0] != "16x16" || res.Table.Rows[1][0] != "32x32" {
		t.Errorf("unexpected mesh rows: %v, %v", res.Table.Rows[0][0], res.Table.Rows[1][0])
	}
}

// TestGoldenAcrossShardCounts extends the golden-CSV reproducibility
// suite to E11 (flit co-simulation) and E15: their quick cells must
// render byte-identically, table and CSV, at every worker count. Each
// cell runs its epochs on the one serial path; the name is kept from
// when the test also varied an intra-run shard count.
func TestGoldenAcrossShardCounts(t *testing.T) {
	for _, id := range []string{"E1", "E11", "E15"} {
		t.Run(id, func(t *testing.T) {
			golden, err := (&Runner{Quick: true, Workers: 1}).Run(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				got, err := (&Runner{Quick: true, Workers: workers}).Run(id)
				if err != nil {
					t.Fatal(err)
				}
				if got.Render() != golden.Render() {
					t.Errorf("workers=%d: %s output diverged from serial golden\n-- pooled --\n%s\n-- golden --\n%s",
						workers, id, got.Render(), golden.Render())
				}
				if got.Table.CSV() != golden.Table.CSV() {
					t.Errorf("workers=%d: %s CSV diverged from serial golden", workers, id)
				}
			}
		})
	}
}
