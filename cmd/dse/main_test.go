package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"potsim/internal/dse"
	"potsim/internal/results"
)

// TestRunSmallSweep runs the (TDP fraction x test interval) sweep grid
// as a campaign spec, the way configs/sweep-16nm.json does at full size:
// the frontier CSV holds both points and the full-stage store carries a
// finite detection latency for every cell.
func TestRunSmallSweep(t *testing.T) {
	dir := t.TempDir()
	spec := writeSweepSpec(t, dir, "0.3, 0.5")
	csv := filepath.Join(dir, "sweep.csv")
	store := filepath.Join(dir, "stores")
	err := run([]string{"-campaign", spec, "-dir", filepath.Join(dir, "state"),
		"-store", store, "-csv", csv})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) != 3 { // header + 2 points
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), blob)
	}
	for i, tdp := range []string{"0.3", "0.5"} {
		if f := strings.Split(lines[i+1], ","); f[3] != tdp || f[4] != "50" {
			t.Errorf("CSV row %d = %q, want tdpFraction %s at 50 ms", i+1, lines[i+1], tdp)
		}
	}

	st, err := results.Open(dse.StageStorePath(store, "full"), nil)
	if err != nil {
		t.Fatal(err)
	}
	si, li := st.Schema().Col("status"), st.Schema().Col("detectLatencyMS")
	if li < 0 {
		t.Fatal("store lacks the detectLatencyMS column")
	}
	sc := st.Scan()
	rows := 0
	for sc.Next() {
		rows++
		if sc.Str(si) != "ok" {
			t.Errorf("store row %d has status %q", rows, sc.Str(si))
			continue
		}
		if lat := sc.Float(li); math.IsNaN(lat) || math.IsInf(lat, 0) {
			t.Errorf("store row %d detectLatencyMS = %v, want finite", rows, lat)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Errorf("store has %d rows, want 2", rows)
	}
}

// writeSweepSpec writes a small sweep campaign spec (8x8, 16nm, 50 ms
// interval, 40 ms horizon, 1 seed, faults on) over the given TDP
// fractions into dir and returns its path.
func writeSweepSpec(t *testing.T, dir, tdps string) string {
	t.Helper()
	spec := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(spec, []byte(`{
  "name": "small-sweep",
  "meshes": ["8x8"],
  "nodes": ["16nm"],
  "tdpFractions": [`+tdps+`],
  "baseIntervalsMS": [50],
  "policies": ["pots"],
  "seeds": 1,
  "horizonMS": 40,
  "mapper": "NN",
  "enableFaults": true,
  "faultRatePerSec": 0.1
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRunArgErrors(t *testing.T) {
	cases := [][]string{
		{"-dir", "x"}, // no -campaign
		{"-resume"},   // resume without a campaign
		{"-campaign", "does-not-exist.json", "-dir", "x"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunCampaignMode drives the full CLI path: spec file in, frontier
// CSV + quarantine report out, with a chaos cell quarantined and the
// run still exiting cleanly.
func TestRunCampaignMode(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{
  "name": "cli",
  "meshes": ["4x4"],
  "nodes": ["16nm"],
  "tdpFractions": [0.4],
  "baseIntervalsMS": [20],
  "policies": ["pots", "notest"],
  "seeds": 2,
  "horizonMS": 30
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(dir, "state")
	csv := filepath.Join(dir, "frontier.csv")
	quar := filepath.Join(dir, "quarantine.json")
	status := filepath.Join(dir, "status.json")
	err := run([]string{"-campaign", spec, "-dir", state, "-workers", "2",
		"-csv", csv, "-quarantine-report", quar, "-status-file", status,
		"-chaos", "panic:policy=pots seed=2"})
	if err != nil {
		t.Fatalf("campaign with a quarantined cell must exit cleanly: %v", err)
	}
	blob, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "quarantined:panic") {
		t.Fatalf("frontier CSV lacks the gap row:\n%s", blob)
	}
	qblob, err := os.ReadFile(quar)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(qblob), `"class": "panic"`) {
		t.Fatalf("quarantine report lacks the panic entry:\n%s", qblob)
	}
	if _, err := os.Stat(status); err != nil {
		t.Fatalf("status file missing: %v", err)
	}

	// Resume against the same dir (chaos disarmed): byte-identical CSV
	// served from the journal.
	csv2 := filepath.Join(dir, "frontier2.csv")
	if err := run([]string{"-campaign", spec, "-dir", state, "-resume",
		"-workers", "1", "-csv", csv2}); err != nil {
		t.Fatal(err)
	}
	blob2, err := os.ReadFile(csv2)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("resumed CSV differs:\nfirst:\n%s\nsecond:\n%s", blob, blob2)
	}

	// A campaign may not resume into a directory whose journal belongs
	// to a different spec.
	if err := os.WriteFile(spec, []byte(`{
  "name": "cli",
  "meshes": ["4x4"],
  "nodes": ["16nm"],
  "tdpFractions": [0.4],
  "baseIntervalsMS": [20],
  "policies": ["pots", "notest"],
  "seeds": 1,
  "horizonMS": 30
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-campaign", spec, "-dir", state, "-resume"}); err == nil {
		t.Fatal("resume against a different spec's journal accepted")
	}
}

// TestSweepCSVWriteIsAtomic pins the atomicwrite fix: the sweep's
// frontier CSV must land via checkpoint.WriteFileAtomic (write-to-temp,
// fsync, rename), so a pre-existing file is replaced wholesale and no
// *.tmp* droppings survive a successful run.
func TestSweepCSVWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	spec := writeSweepSpec(t, dir, "0.3")
	csv := filepath.Join(dir, "sweep.csv")
	if err := os.WriteFile(csv, []byte("stale partial content"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-campaign", spec, "-dir", filepath.Join(dir, "state"), "-csv", csv})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "stale partial") {
		t.Fatal("sweep CSV was not replaced")
	}
	if !strings.HasPrefix(string(blob), "cell,mesh") {
		t.Fatalf("sweep CSV lost its header: %q", blob)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind by the atomic write", e.Name())
		}
	}
}
