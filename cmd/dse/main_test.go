package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmallSweep(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "sweep.csv")
	err := run([]string{"-tdp", "0.3,0.5", "-interval", "50ms",
		"-horizon", "40ms", "-seeds", "1", "-csv", csv})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) != 3 { // header + 2 points
		t.Errorf("CSV has %d lines, want 3", len(lines))
	}
}

func TestRunArgErrors(t *testing.T) {
	cases := [][]string{
		{"-tdp", "banana"},
		{"-tdp", "1.5"},
		{"-interval", "zzz"},
		{"-seeds", "0"},
		{"-resume"}, // resume without a campaign
		{"-campaign", "does-not-exist.json", "-dir", "x"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestParseFloatList: strconv.ParseFloat on whole tokens — trailing
// garbage, empty tokens, dangling exponents and non-finite values must
// all be rejected, not silently truncated the way Sscanf("%g") did.
func TestParseFloatList(t *testing.T) {
	cases := []struct {
		list string
		want []float64
		ok   bool
	}{
		{"0.25,0.35,0.50", []float64{0.25, 0.35, 0.50}, true},
		{" 0.5 , 1 ", []float64{0.5, 1}, true},
		{"1e-1", []float64{0.1}, true},
		{"0.5x", nil, false}, // trailing garbage (Sscanf parsed this as 0.5)
		{"x0.5", nil, false}, // leading garbage
		{"", nil, false},     // empty token
		{"0.5,", nil, false}, // trailing empty token
		{"0.5,,1", nil, false},
		{"1e", nil, false},    // dangling exponent
		{"1e999", nil, false}, // out of range
		{"-1e999", nil, false},
		{"NaN", nil, false},
		{"+Inf", nil, false},
		{"banana", nil, false},
	}
	for _, c := range cases {
		got, err := parseFloatList("-tdp", c.list)
		if c.ok != (err == nil) {
			t.Errorf("parseFloatList(%q): err = %v, want ok=%v", c.list, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseFloatList(%q) = %v, want %v", c.list, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseFloatList(%q)[%d] = %v, want %v", c.list, i, got[i], c.want[i])
			}
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

// TestSweepCSVWriteIsAtomic pins the atomicwrite fix: the sweep CSV
// must land via checkpoint.WriteFileAtomic (write-to-temp, fsync,
// rename), so a pre-existing file is replaced wholesale and no *.tmp*
// droppings survive a successful run.
func TestSweepCSVWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "sweep.csv")
	if err := os.WriteFile(csv, []byte("stale partial content"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-tdp", "0.3", "-interval", "50ms",
		"-horizon", "40ms", "-seeds", "1", "-csv", csv})
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
	if !strings.HasPrefix(string(blob), "tdp-frac") {
		t.Fatalf("sweep CSV lost its header: %q", string(blob)[:40])
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
