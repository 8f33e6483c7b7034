package dse

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"potsim/internal/core"
	"potsim/internal/expt"
	"potsim/internal/results"
	"potsim/internal/sim"
)

// memoSpec is a screened campaign over two testing policies and notest
// at two seeds, so within a stage three cells want each NoTest config.
func memoSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := ParseSpec([]byte(`{
  "name": "memo",
  "meshes": ["4x4"],
  "nodes": ["16nm"],
  "tdpFractions": [0.35, 0.5],
  "baseIntervalsMS": [20, 50],
  "policies": ["pots", "naive", "notest"],
  "seeds": 2,
  "horizonMS": 30,
  "screen": {"horizonMS": 10, "keepRanks": 2}
}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stageHorizon is the simulated horizon of a stage of spec.
func stageHorizon(spec *Spec, stage string) sim.Time {
	if stage == "screen" {
		return sim.FromSeconds(spec.Screen.HorizonMS / 1000)
	}
	return sim.FromSeconds(spec.HorizonMS / 1000)
}

// storeLines maps each cell of a stage store to its line.
func storeLines(t *testing.T, root, stage string) map[string]string {
	t.Helper()
	blob, err := os.ReadFile(StageStorePath(root, stage))
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, ln := range strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")[1:] {
		cell, _, _ := strings.Cut(ln, ",")
		lines[cell] = ln
	}
	return lines
}

// unsharedMetrics computes a cell's store metrics with nothing shared:
// ExecuteCell for the policy run, and again for the cell's own NoTest
// reference.
func unsharedMetrics(t *testing.T, space *Space, p Point, horizon sim.Time) map[string]float64 {
	t.Helper()
	run := func(policy core.TestPolicyKind) *core.Report {
		cfg := space.Config(p, horizon)
		cfg.TestPolicy = policy
		rep, err := expt.ExecuteCell(context.Background(), cfg, expt.CellOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p.Label(), err)
		}
		return rep
	}
	rep := run(p.Policy)
	var ref *core.Report
	if p.Policy != core.PolicyNoTest {
		ref = run(core.PolicyNoTest)
	}
	return map[string]float64{
		"penaltyPct":      100 * rep.ThroughputPenalty(ref),
		"coveragePct":     100 * rep.LevelCoverage,
		"peakTempK":       rep.PeakTempK,
		"headroomW":       rep.TDPWatts - rep.MeanPowerW,
		"meanPowerW":      rep.MeanPowerW,
		"tdpWatts":        rep.TDPWatts,
		"testEnergyPct":   100 * rep.TestEnergyShare,
		"tasksPerSec":     rep.ThroughputTasksPerSec,
		"detectLatencyMS": rep.FaultStats.MeanLatency.Millis(),
	}
}

// TestCampaignStoresMatchUnsharedReferences is the NoTest memo's
// oracle: every row of both stage stores holds, bit for bit, the
// metrics of a cell whose policy run and NoTest reference both ran on
// their own.
func TestCampaignStoresMatchUnsharedReferences(t *testing.T) {
	spec := memoSpec(t)
	stores := t.TempDir()
	runCampaign(t, &Engine{Spec: spec, Dir: t.TempDir(), Workers: 2, StoreDir: stores})
	space, err := NewSpace(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"screen", "full"} {
		st, err := results.Open(StageStorePath(stores, stage), storeSchema)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Rows()) == 0 {
			t.Fatalf("%s store is empty", stage)
		}
		status := storeSchema.Col("status")
		for _, row := range st.Rows() {
			p := space.Point(row[0].Int)
			if row[status].Str != "ok" {
				t.Fatalf("%s: %s has status %q", stage, p.Label(), row[status].Str)
			}
			for col, want := range unsharedMetrics(t, space, p, stageHorizon(spec, stage)) {
				if got := row[storeSchema.Col(col)].F; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: %s %s = %v, unshared run gives %v", stage, p.Label(), col, got, want)
				}
			}
		}
	}
}

// TestCampaignCountsSimulations pins the memo's saving: at one worker
// each stage runs every testing cell's policy run plus one run per
// distinct NoTest config. More workers may race on a reference, never
// beyond the unshared count (two runs per testing cell, one per notest
// cell) and never changing an output byte. A finished campaign resumes
// without running anything.
func TestCampaignCountsSimulations(t *testing.T) {
	spec := memoSpec(t)
	space, err := NewSpace(spec)
	if err != nil {
		t.Fatal(err)
	}
	serialDir, serialStores := t.TempDir(), t.TempDir()
	serial := runCampaign(t, &Engine{Spec: spec, Dir: serialDir, Workers: 1, StoreDir: serialStores})

	// counts returns a stage's memoized and unshared simulation counts
	// from the cells its store holds.
	counts := func(stage string) (memo, unshared int64) {
		refs := map[string]bool{}
		for cell := range storeLines(t, serialStores, stage) {
			var i int64
			if _, err := fmt.Sscan(cell, &i); err != nil {
				t.Fatal(err)
			}
			p := space.Point(i)
			refs[fmt.Sprint(p.Mesh, p.Node.Name, p.TDPFraction, p.BaseInterval, p.Seed)] = true
			if p.Policy == core.PolicyNoTest {
				unshared++
			} else {
				memo++
				unshared += 2
			}
		}
		return memo + int64(len(refs)), unshared
	}
	screenMemo, screenUnshared := counts("screen")
	fullMemo, fullUnshared := counts("full")
	t.Logf("simulations: screen %d (unshared %d), full %d (unshared %d)", screenMemo, screenUnshared, fullMemo, fullUnshared)
	if screenMemo >= screenUnshared {
		t.Fatalf("the spec shares no reference: %d memoized vs %d unshared screen runs", screenMemo, screenUnshared)
	}
	if got, want := serial.Simulations, screenMemo+fullMemo; got != want {
		t.Errorf("Workers 1: %d simulations, want %d (screen %d + full %d)", got, want, screenMemo, fullMemo)
	}
	// The full stage alone: resume on the screen journal.
	if err := os.Remove(filepath.Join(serialDir, "full.journal")); err != nil {
		t.Fatal(err)
	}
	if got := runCampaign(t, &Engine{Spec: spec, Dir: serialDir, Resume: true, Workers: 1}).Simulations; got != fullMemo {
		t.Errorf("full stage at Workers 1: %d simulations, want %d", got, fullMemo)
	}

	wideStores := t.TempDir()
	wide := runCampaign(t, &Engine{Spec: spec, Dir: t.TempDir(), Workers: 4, StoreDir: wideStores})
	if lo, hi := screenMemo+fullMemo, screenUnshared+fullUnshared; wide.Simulations < lo || wide.Simulations > hi {
		t.Errorf("Workers 4: %d simulations, want %d..%d", wide.Simulations, lo, hi)
	}
	if wide.CSV() != serial.CSV() {
		t.Errorf("frontier CSV differs between 1 and 4 workers:\n%s\n%s", serial.CSV(), wide.CSV())
	}
	for _, stage := range []string{"screen", "full"} {
		a, _ := os.ReadFile(StageStorePath(serialStores, stage))
		b, _ := os.ReadFile(StageStorePath(wideStores, stage))
		if len(a) == 0 || string(a) != string(b) {
			t.Errorf("%s store differs between 1 and 4 workers:\n%s\n%s", stage, a, b)
		}
	}

	if got := runCampaign(t, &Engine{Spec: spec, Dir: serialDir, Resume: true, Workers: 2}).Simulations; got != 0 {
		t.Errorf("resuming a finished campaign ran %d simulations", got)
	}
}

// TestCampaignNaNNoTestLeavesTestingCellsIntact: chaos nan poisons the
// notest cells' own runs, so exactly those cells are quarantined, and a
// poisoned report never stands in for a reference: every testing cell's
// row is bit-equal to the chaos-free campaign's.
func TestCampaignNaNNoTestLeavesTestingCellsIntact(t *testing.T) {
	spec := memoSpec(t)
	space, err := NewSpace(spec)
	if err != nil {
		t.Fatal(err)
	}
	clean, poisoned := t.TempDir(), t.TempDir()
	runCampaign(t, &Engine{Spec: spec, Dir: t.TempDir(), Workers: 2, StoreDir: clean})
	res := runCampaign(t, &Engine{Spec: spec, Dir: t.TempDir(), Workers: 2, StoreDir: poisoned,
		Chaos: &expt.Chaos{Mode: "nan", Match: "policy=notest"}})

	var notest int
	for i := int64(0); i < space.Count(); i++ {
		if space.Point(i).Policy == core.PolicyNoTest {
			notest++
		}
	}
	if len(res.Quarantine.Cells) != notest {
		t.Fatalf("%d cells quarantined, want the %d notest cells", len(res.Quarantine.Cells), notest)
	}
	for _, q := range res.Quarantine.Cells {
		if space.Point(q.Index).Policy != core.PolicyNoTest {
			t.Fatalf("quarantined a testing cell: %+v", q)
		}
	}
	compared := 0
	for _, stage := range []string{"screen", "full"} {
		want := storeLines(t, clean, stage)
		for cell, line := range storeLines(t, poisoned, stage) {
			if strings.Contains(line, ",notest,") {
				continue
			}
			if w, ok := want[cell]; ok {
				compared++
				if line != w {
					t.Errorf("%s cell %s:\n got %s\nwant %s", stage, cell, line, w)
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no testing cell compared")
	}
}
