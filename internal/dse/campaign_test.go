package dse

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"potsim/internal/expt"
)

// testSpec is a campaign small enough for unit tests (~8 cells) yet
// covering two policies and two seeds so the frontier is non-trivial.
func testSpec(t *testing.T, screen bool) *Spec {
	t.Helper()
	src := `{
  "name": "unit",
  "meshes": ["4x4", "8x4"],
  "nodes": ["16nm"],
  "tdpFractions": [0.4],
  "baseIntervalsMS": [20],
  "policies": ["pots", "notest"],
  "seeds": 2,
  "horizonMS": 30
}`
	s, err := ParseSpec([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if screen {
		s.Screen = &ScreenSpec{HorizonMS: 10}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func runCampaign(t *testing.T, e *Engine) *Result {
	t.Helper()
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	return res
}

// TestCampaignDeterministicAcrossWorkersAndShards pins the frontier CSV
// across worker counts. The name is kept from when the test also varied
// an intra-run shard count; every cell's run is serial now.
func TestCampaignDeterministicAcrossWorkersAndShards(t *testing.T) {
	spec := testSpec(t, false)
	serial := runCampaign(t, &Engine{Spec: spec, Dir: t.TempDir(), Workers: 1})
	wide := runCampaign(t, &Engine{Spec: spec, Dir: t.TempDir(), Workers: 4})
	if len(serial.Frontier) == 0 {
		t.Fatal("empty frontier from a healthy campaign")
	}
	if got, want := wide.CSV(), serial.CSV(); got != want {
		t.Fatalf("frontier CSV depends on workers:\nserial:\n%s\nwide:\n%s", want, got)
	}
	if len(serial.Quarantine.Cells) != 0 {
		t.Fatalf("healthy campaign quarantined cells: %+v", serial.Quarantine.Cells)
	}
}

func TestCampaignResumeAfterInterruptIsByteIdentical(t *testing.T) {
	spec := testSpec(t, true) // screening on: exercises both journals
	golden := runCampaign(t, &Engine{Spec: spec, Dir: t.TempDir(), Workers: 2})

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // interrupt before any cell is journaled
	if _, err := (&Engine{Spec: spec, Dir: dir, Workers: 1}).Run(ctx); err == nil {
		t.Fatal("interrupted campaign reported success")
	}
	res := runCampaign(t, &Engine{Spec: spec, Dir: dir, Resume: true, Workers: 3})
	if got, want := res.CSV(), golden.CSV(); got != want {
		t.Fatalf("resumed frontier differs from uninterrupted run:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Interrupt mid-campaign: let some cells land in the journal first.
	dir2 := t.TempDir()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel2()
	_, err := (&Engine{Spec: spec, Dir: dir2, Workers: 1}).Run(ctx2)
	if err == nil {
		// The whole campaign beat the deadline; resume is then a pure
		// cache replay, which must still match.
		t.Log("campaign finished before the interrupt; resuming from complete journals")
	}
	res2 := runCampaign(t, &Engine{Spec: spec, Dir: dir2, Resume: true, Workers: 2})
	if got, want := res2.CSV(), golden.CSV(); got != want {
		t.Fatalf("mid-flight resume differs from uninterrupted run:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestCampaignQuarantinesPanickingCell(t *testing.T) {
	spec := testSpec(t, false)
	status := filepath.Join(t.TempDir(), "status.json")
	e := &Engine{
		Spec:       spec,
		Dir:        t.TempDir(),
		Workers:    2,
		Chaos:      &expt.Chaos{Mode: "panic", Match: "policy=pots seed=2"},
		StatusPath: status,
	}
	res := runCampaign(t, e)
	if len(res.Quarantine.Cells) != 2 {
		t.Fatalf("want 2 quarantined cells (pots seed=2 on both meshes), got %+v",
			res.Quarantine.Cells)
	}
	for _, q := range res.Quarantine.Cells {
		if q.Class != QuarantinePanic {
			t.Fatalf("quarantine class = %q, want panic", q.Class)
		}
		if !strings.Contains(q.Label, "seed=2") {
			t.Fatalf("quarantined the wrong cell: %q", q.Label)
		}
	}
	if len(res.Frontier) == 0 {
		t.Fatal("quarantine emptied the frontier instead of degrading it")
	}
	csv := res.CSV()
	if !strings.Contains(csv, "quarantined:panic") {
		t.Fatalf("CSV lacks the explicit gap row:\n%s", csv)
	}
	if !strings.Contains(res.Quarantine.Summary(), "panic=2") {
		t.Fatalf("summary = %q", res.Quarantine.Summary())
	}

	blob, err := os.ReadFile(status)
	if err != nil {
		t.Fatalf("status file: %v", err)
	}
	var st Status
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatalf("status file does not parse: %v\n%s", err, blob)
	}
	if st.Stage != "done" || st.Quarantined != 2 {
		t.Fatalf("final status = %+v", st)
	}
}

func TestCampaignQuarantinesHangingCellViaWatchdog(t *testing.T) {
	// Four 4x4 cells at a 2 ms horizon: a healthy cell takes a few ms
	// under -race, under a tenth of the watchdog, so a busy host cannot
	// push one past it and only the hanging cell times out.
	spec, err := ParseSpec([]byte(`{"name": "watchdog", "meshes": ["4x4"], "nodes": ["16nm"],
  "tdpFractions": [0.4], "baseIntervalsMS": [20], "policies": ["pots", "notest"],
  "seeds": 2, "horizonMS": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{
		Spec:        spec,
		Dir:         t.TempDir(),
		Workers:     2,
		CellTimeout: 100 * time.Millisecond,
		Chaos:       &expt.Chaos{Mode: "hang", Match: "mesh=4x4 node=16nm tdp=0.4 iv=20ms policy=pots seed=1"},
	}
	res := runCampaign(t, e)
	if len(res.Quarantine.Cells) != 1 || res.Quarantine.Cells[0].Class != QuarantineTimeout {
		t.Fatalf("want one timeout quarantine, got %+v", res.Quarantine.Cells)
	}
	if !strings.Contains(res.CSV(), "quarantined:timeout") {
		t.Fatalf("CSV lacks the timeout gap row:\n%s", res.CSV())
	}
}

func TestCampaignQuarantineSurvivesResume(t *testing.T) {
	spec := testSpec(t, false)
	dir := t.TempDir()
	chaos := &expt.Chaos{Mode: "panic", Match: "policy=pots seed=2"}
	first := runCampaign(t, &Engine{Spec: spec, Dir: dir, Chaos: chaos})
	// Resume with chaos disarmed: the quarantine verdicts must be served
	// from the journal, not re-tried.
	second := runCampaign(t, &Engine{Spec: spec, Dir: dir, Resume: true})
	if got, want := second.CSV(), first.CSV(); got != want {
		t.Fatalf("resume re-ran quarantined cells:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if len(second.Quarantine.Cells) != 2 {
		t.Fatalf("journaled quarantine lost on resume: %+v", second.Quarantine.Cells)
	}
}

func TestCampaignRefusesForeignJournal(t *testing.T) {
	spec := testSpec(t, false)
	dir := t.TempDir()
	runCampaign(t, &Engine{Spec: spec, Dir: dir})
	other := testSpec(t, false)
	other.Seeds = 1
	if _, err := (&Engine{Spec: other, Dir: dir, Resume: true}).Run(context.Background()); err == nil {
		t.Fatal("campaign resumed against a different spec's journal")
	}
}

// TestCampaignWithNoSurvivorsRunsNoFullStage: when the screen
// quarantines every cell, the full stage has no cells to run (an empty
// survivor set is not "the whole space"), so each cell is quarantined
// once and the full-stage store holds only its header.
func TestCampaignWithNoSurvivorsRunsNoFullStage(t *testing.T) {
	spec := testSpec(t, true)
	stores := t.TempDir()
	res := runCampaign(t, &Engine{Spec: spec, Dir: t.TempDir(), Workers: 2, StoreDir: stores,
		Chaos: &expt.Chaos{Mode: "panic", Match: "mesh="}})
	if res.Survivors != 0 || res.Simulations != 0 {
		t.Fatalf("Survivors = %d, Simulations = %d; want 0 and 0", res.Survivors, res.Simulations)
	}
	if got := int64(len(res.Quarantine.Cells)); got != res.Total {
		t.Fatalf("%d cells quarantined, want each of the %d once", got, res.Total)
	}
	seen := map[int64]bool{}
	for _, q := range res.Quarantine.Cells {
		if seen[q.Index] || q.Stage != "screen" {
			t.Fatalf("cell %d quarantined twice or outside the screen: %+v", q.Index, res.Quarantine.Cells)
		}
		seen[q.Index] = true
	}
	if n := int64(strings.Count(res.CSV(), "quarantined:panic")); n != res.Total {
		t.Fatalf("frontier CSV has %d gap rows, want %d:\n%s", n, res.Total, res.CSV())
	}
	blob, err := os.ReadFile(StageStorePath(stores, "full"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(blob), "\n"); lines != 1 {
		t.Fatalf("full-stage store has %d lines, want the header only:\n%s", lines, blob)
	}
}

func TestCampaignScreeningPrunesFullStage(t *testing.T) {
	spec := testSpec(t, true)
	res := runCampaign(t, &Engine{Spec: spec, Dir: t.TempDir(), Workers: 2})
	if res.Screened != res.Total {
		t.Fatalf("Screened = %d, want the whole space %d", res.Screened, res.Total)
	}
	if res.Survivors < 1 || res.Survivors > res.Total {
		t.Fatalf("Survivors = %d outside 1..%d", res.Survivors, res.Total)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("screened campaign produced no frontier")
	}
	for _, fr := range res.Frontier {
		if fr.Metrics.TasksPerSec <= 0 {
			t.Fatalf("frontier row with no throughput: %+v", fr)
		}
	}
}
