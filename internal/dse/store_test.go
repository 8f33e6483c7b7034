package dse

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"potsim/internal/batch"
	"potsim/internal/expt"
	"potsim/internal/results"
	"potsim/internal/sim"
)

// readStoreRows reads one stage store under the stage schema, so every
// cell parses as the kind the engine wrote.
func readStoreRows(t *testing.T, path string) (*results.Store, [][]results.Value) {
	t.Helper()
	st, err := results.Open(path, storeSchema)
	if err != nil {
		t.Fatalf("open stage store %s: %v", path, err)
	}
	return st, st.Rows()
}

// TestCampaignStoreHoldsEveryCellOutcome checks the stage stores: one
// row per cell in cell order, screen covers the whole space, full
// covers exactly the survivors, and the frontier metrics in the store
// match the Result.
func TestCampaignStoreHoldsEveryCellOutcome(t *testing.T) {
	spec := testSpec(t, true)
	storeDir := t.TempDir()
	res := runCampaign(t, &Engine{
		Spec: spec, Dir: t.TempDir(), Workers: 2, StoreDir: storeDir,
	})

	screenSt, screenRows := readStoreRows(t, StageStorePath(storeDir, "screen"))
	if int64(len(screenRows)) != res.Total {
		t.Fatalf("screen store has %d rows, want the whole space %d", len(screenRows), res.Total)
	}
	ci := screenSt.Schema().Col("cell")
	for i, row := range screenRows {
		if row[ci].Int != int64(i) {
			t.Fatalf("screen row %d holds cell %d: stores must be in cell order", i, row[ci].Int)
		}
	}

	fullSt, fullRows := readStoreRows(t, StageStorePath(storeDir, "full"))
	if int64(len(fullRows)) != res.Survivors {
		t.Fatalf("full store has %d rows, want the %d survivors", len(fullRows), res.Survivors)
	}
	// Every frontier member's stored metrics must match the Result
	// exactly — the store is a projection of the same outcomes.
	pi := fullSt.Schema().Col("penaltyPct")
	si := fullSt.Schema().Col("status")
	li := fullSt.Schema().Col("detectLatencyMS")
	byCell := map[int64][]results.Value{}
	for _, row := range fullRows {
		byCell[row[fullSt.Schema().Col("cell")].Int] = row
	}
	for _, fr := range res.Frontier {
		row, ok := byCell[fr.Point.Index]
		if !ok {
			t.Fatalf("frontier cell %d missing from the full-stage store", fr.Point.Index)
		}
		if row[si].Str != "ok" {
			t.Fatalf("frontier cell %d stored with status %q", fr.Point.Index, row[si].Str)
		}
		if math.Float64bits(row[pi].F) != math.Float64bits(fr.Metrics.PenaltyPct) {
			t.Fatalf("frontier cell %d penalty %v != stored %v", fr.Point.Index, fr.Metrics.PenaltyPct, row[pi].F)
		}
		if got := row[li].F; math.Float64bits(got) != math.Float64bits(fr.Metrics.DetectLatencyMS) {
			t.Fatalf("frontier cell %d detection latency %v != stored %v", fr.Point.Index, fr.Metrics.DetectLatencyMS, got)
		}
	}
}

// TestCampaignStoreDetectLatencyWithFaults: with fault injection on,
// every ok row of the full-stage store carries a finite mean detection
// latency, and at least one cell detected a fault.
func TestCampaignStoreDetectLatencyWithFaults(t *testing.T) {
	spec := testSpec(t, false)
	spec.EnableFaults, spec.FaultRatePerSec = true, 50
	storeDir := t.TempDir()
	runCampaign(t, &Engine{Spec: spec, Dir: t.TempDir(), Workers: 2, StoreDir: storeDir})
	st, rows := readStoreRows(t, StageStorePath(storeDir, "full"))
	si, li := st.Schema().Col("status"), st.Schema().Col("detectLatencyMS")
	if li < 0 {
		t.Fatal("store schema lacks detectLatencyMS")
	}
	var detected int
	for _, row := range rows {
		if row[si].Str != "ok" {
			t.Fatalf("cell %d stored with status %q", row[0].Int, row[si].Str)
		}
		lat := row[li].F
		if math.IsNaN(lat) || math.IsInf(lat, 0) || lat < 0 {
			t.Fatalf("ok row carries detection latency %v", lat)
		}
		if lat > 0 {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no cell recorded a detection latency with faults on")
	}
}

// TestCampaignResumeRejectsPreLatencyJournal: a journal whose meta lacks
// the metrics schema token — one written before detectLatencyMS was
// journaled — is refused on resume, not replayed with zero latencies.
func TestCampaignResumeRejectsPreLatencyJournal(t *testing.T) {
	spec := testSpec(t, false)
	dir := t.TempDir()
	e := &Engine{Spec: spec, Dir: dir, Resume: true}
	space, err := NewSpace(spec)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	meta := e.stageMeta(fp, "full", sim.FromSeconds(spec.HorizonMS/1000), int(space.Count()), nil)
	old := strings.Replace(meta, "metrics=2 ", "", 1)
	if old == meta {
		t.Fatalf("stage meta %q carries no metrics token", meta)
	}
	j, _, err := batch.OpenJournal(filepath.Join(dir, "full.journal"), old)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "different suite") {
		t.Fatalf("resume over a pre-latency journal: got %v, want a meta mismatch", err)
	}
}

// TestCampaignStoreQuarantineRowsAreNaNGaps checks that quarantined
// cells appear as explicit rows with a class-bearing status and NaN
// metrics, and that the store's group-by can count them.
func TestCampaignStoreQuarantineRowsAreNaNGaps(t *testing.T) {
	spec := testSpec(t, false)
	storeDir := t.TempDir()
	res := runCampaign(t, &Engine{
		Spec: spec, Dir: t.TempDir(), Workers: 2, StoreDir: storeDir,
		Chaos: &expt.Chaos{Mode: "panic", Match: "policy=pots seed=2"},
	})
	if len(res.Quarantine.Cells) != 2 {
		t.Fatalf("want 2 quarantined cells, got %+v", res.Quarantine.Cells)
	}
	st, rows := readStoreRows(t, StageStorePath(storeDir, "full"))
	si, pi := st.Schema().Col("status"), st.Schema().Col("penaltyPct")
	li := st.Schema().Col("detectLatencyMS")
	var gaps int
	for _, row := range rows {
		if row[si].Str == "quarantined:panic" {
			gaps++
			if !math.IsNaN(row[pi].F) || !math.IsNaN(row[li].F) {
				t.Fatalf("quarantined row carries a real metric: penalty %v, latency %v", row[pi].F, row[li].F)
			}
		}
	}
	if gaps != 2 {
		t.Fatalf("store has %d quarantine gap rows, want 2", gaps)
	}
	qr, err := st.RunQuery(results.Query{
		GroupBy: []string{"status"},
		Aggs:    []results.Agg{{Op: "count"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]int64{}
	for _, row := range qr.Rows {
		found[row[0].Str] = row[1].Int
	}
	if found["quarantined:panic"] != 2 {
		t.Fatalf("group-by status = %v, want quarantined:panic -> 2", found)
	}
	if found["ok"] != int64(len(rows))-2 {
		t.Fatalf("group-by status = %v, want ok -> %d", found, len(rows)-2)
	}
}

// TestCampaignStoreResumeIsByteIdentical is the store's resume-safety
// contract: a campaign interrupted mid-flight and resumed — even at a
// different worker count — rewrites stage stores byte-identical to an
// uninterrupted run's.
func TestCampaignStoreResumeIsByteIdentical(t *testing.T) {
	spec := testSpec(t, true)
	goldenStore := t.TempDir()
	runCampaign(t, &Engine{Spec: spec, Dir: t.TempDir(), Workers: 2, StoreDir: goldenStore})

	dir, store := t.TempDir(), t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Engine{Spec: spec, Dir: dir, Workers: 1, StoreDir: store}).Run(ctx); err == nil {
		t.Fatal("interrupted campaign reported success")
	}
	runCampaign(t, &Engine{Spec: spec, Dir: dir, Resume: true, Workers: 3, StoreDir: store})

	for _, stage := range []string{"screen", "full"} {
		want, err := os.ReadFile(StageStorePath(goldenStore, stage))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(StageStorePath(store, stage))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || string(want) != string(got) {
			t.Fatalf("stage %s store differs between golden and resumed runs:\n%s\n---\n%s", stage, want, got)
		}
	}
}

// TestCampaignStoreCleansCrashDroppings: a kill between a store's temp
// write and its rename leaves a ".tmp" dropping beside the stores; the
// next run removes it before its first write and leaves whole stores.
func TestCampaignStoreCleansCrashDroppings(t *testing.T) {
	spec := testSpec(t, false)
	store := t.TempDir()
	tmp := StageStorePath(store, "full") + ".tmp123456"
	if err := os.WriteFile(tmp, []byte("cell,mesh\n0,8"), 0o644); err != nil {
		t.Fatal(err)
	}
	res := runCampaign(t, &Engine{Spec: spec, Dir: t.TempDir(), Workers: 2, StoreDir: store})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp dropping survived the run: %v", err)
	}
	if _, rows := readStoreRows(t, StageStorePath(store, "full")); int64(len(rows)) != res.Total {
		t.Fatalf("full store has %d rows, want %d", len(rows), res.Total)
	}
}
