package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: potsim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSystemEpoch-8 	  141760	      8000 ns/op	     11657 sim-ms/s	       0 B/op	       0 allocs/op
BenchmarkSystemEpoch-8 	  135602	      9000 ns/op	     11633 sim-ms/s	       0 B/op	       0 allocs/op
BenchmarkNoCStep-8     	   39530	     32785 ns/op	    1917 B/op	       4 allocs/op
BenchmarkThermalStep/cores=64-8 	  500000	      2500 ns/op	       0 B/op	       0 allocs/op
--- BENCH: BenchmarkE1ThroughputPenalty
    bench_test.go:31: some table output
PASS
ok  	potsim	3.809s
`

func TestParse(t *testing.T) {
	r := Parse(sample)
	if r.Goos != "linux" || r.Goarch != "amd64" || !strings.Contains(r.CPU, "Xeon") {
		t.Fatalf("environment header not parsed: %+v", r)
	}
	if len(r.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(r.Benchmarks))
	}
	// Repeated -count lines fold into a mean; the -8 suffix is stripped.
	ns, ok := r.Mean("BenchmarkSystemEpoch", "ns/op")
	if !ok || math.Abs(ns-8500) > 1e-9 {
		t.Fatalf("SystemEpoch mean ns/op = %v (ok=%v), want 8500", ns, ok)
	}
	if v, ok := r.Mean("BenchmarkSystemEpoch", "sim-ms/s"); !ok || math.Abs(v-11645) > 1e-9 {
		t.Fatalf("custom metric mean = %v (ok=%v), want 11645", v, ok)
	}
	// Sub-benchmark names keep their /part but lose the cpu suffix.
	if _, ok := r.Mean("BenchmarkThermalStep/cores=64", "ns/op"); !ok {
		t.Fatal("sub-benchmark not parsed")
	}
	if v, ok := r.Mean("BenchmarkNoCStep", "allocs/op"); !ok || v != 4 {
		t.Fatalf("allocs/op = %v (ok=%v), want 4", v, ok)
	}
}

func TestJSONStableAndValid(t *testing.T) {
	blob, err := Parse(sample).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("emitted JSON does not round-trip: %v", err)
	}
	if len(decoded.Benchmarks) != 3 {
		t.Fatalf("round-trip lost benchmarks: %d", len(decoded.Benchmarks))
	}
	for i := 1; i < len(decoded.Benchmarks); i++ {
		if decoded.Benchmarks[i-1].Name > decoded.Benchmarks[i].Name {
			t.Fatal("benchmarks not sorted by name")
		}
	}
}

func TestGate(t *testing.T) {
	base := Parse("BenchmarkSystemEpoch 100 1000 ns/op\nBenchmarkNoCStep 100 500 ns/op\n")
	gated := []string{"BenchmarkSystemEpoch", "BenchmarkNoCStep"}

	// Within threshold: +9% passes.
	cur := Parse("BenchmarkSystemEpoch 100 1090 ns/op\nBenchmarkNoCStep 100 500 ns/op\n")
	if f := Gate(base, cur, gated, 0.10); len(f) != 0 {
		t.Fatalf("+9%% flagged as regression: %v", f)
	}
	// Past threshold: +20% fails.
	cur = Parse("BenchmarkSystemEpoch 100 1200 ns/op\nBenchmarkNoCStep 100 500 ns/op\n")
	f := Gate(base, cur, gated, 0.10)
	if len(f) != 1 || !strings.Contains(f[0], "BenchmarkSystemEpoch") {
		t.Fatalf("+20%% not flagged: %v", f)
	}
	// A gated benchmark missing from the current run fails.
	cur = Parse("BenchmarkSystemEpoch 100 1000 ns/op\n")
	f = Gate(base, cur, gated, 0.10)
	if len(f) != 1 || !strings.Contains(f[0], "BenchmarkNoCStep") {
		t.Fatalf("missing benchmark not flagged: %v", f)
	}
	// Missing from the baseline also fails (stale baseline).
	f = Gate(Parse("BenchmarkNoCStep 100 500 ns/op\n"),
		Parse("BenchmarkSystemEpoch 100 1000 ns/op\nBenchmarkNoCStep 100 500 ns/op\n"),
		gated, 0.10)
	if len(f) != 1 || !strings.Contains(f[0], "baseline") {
		t.Fatalf("stale baseline not flagged: %v", f)
	}
	// Improvements never fail.
	cur = Parse("BenchmarkSystemEpoch 100 100 ns/op\nBenchmarkNoCStep 100 50 ns/op\n")
	if f := Gate(base, cur, gated, 0.10); len(f) != 0 {
		t.Fatalf("improvement flagged: %v", f)
	}
}

func TestGateCeilings(t *testing.T) {
	cur := Parse("BenchmarkNoCStep 100 250 ns/op 0 allocs/op\n" +
		"BenchmarkSystemRun32 10 180000000 ns/op 955 allocs/op\n")

	// All ceilings hold.
	f := GateCeilings(cur, "allocs/op", []string{"BenchmarkNoCStep=0"})
	f = append(f, GateCeilings(cur, "ns/op", []string{"BenchmarkSystemRun32=1e9"})...)
	if len(f) != 0 {
		t.Fatalf("ceilings within limits flagged: %v", f)
	}
	// An exceeded ceiling fails.
	f = GateCeilings(cur, "allocs/op", []string{"BenchmarkSystemRun32=0"})
	if len(f) != 1 || !strings.Contains(f[0], "exceeds ceiling") {
		t.Fatalf("exceeded ceiling not flagged: %v", f)
	}
	// A benchmark missing from the capture fails: the ceiling cannot
	// green itself by vanishing.
	f = GateCeilings(cur, "ns/op", []string{"BenchmarkGone=1"})
	if len(f) != 1 || !strings.Contains(f[0], "missing") {
		t.Fatalf("missing benchmark not flagged: %v", f)
	}
	// Malformed specs fail loudly rather than being skipped.
	f = GateCeilings(cur, "ns/op", []string{"no-equals-sign"})
	if len(f) != 1 || !strings.Contains(f[0], "bad ceiling spec") {
		t.Fatalf("malformed spec not flagged: %v", f)
	}
}

func TestMergeAveragesAcrossFiles(t *testing.T) {
	a := Parse("BenchmarkX 10 100 ns/op\nBenchmarkX 10 200 ns/op\n")
	b := Parse("BenchmarkX 10 600 ns/op\n")
	merged := &Report{index: map[string]int{}}
	merged.merge(a)
	merged.merge(b)
	v, ok := merged.Mean("BenchmarkX", "ns/op")
	if !ok || math.Abs(v-300) > 1e-9 {
		t.Fatalf("merged mean = %v (ok=%v), want 300 over 3 runs", v, ok)
	}
	if merged.Benchmarks[0].Runs != 3 {
		t.Fatalf("merged runs = %d, want 3", merged.Benchmarks[0].Runs)
	}
}
