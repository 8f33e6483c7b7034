// Command benchreport turns `go test -bench` text output into a JSON
// report and gates benchmark regressions against a committed baseline.
//
// Parse mode (default) reads one or more benchmark output files (or
// stdin) and writes a JSON summary, averaging repeated -count runs:
//
//	go test -run=NONE -bench=. -benchmem ./... | benchreport -out BENCH_20250101.json
//
// Check mode compares the current output against a baseline capture and
// exits non-zero when a gated benchmark's mean ns/op regresses past the
// threshold or when an absolute allocs/op ceiling (-max-allocs) is
// exceeded:
//
//	benchreport -check -baseline bench/baseline.txt current.txt
//
// The tool intentionally has no dependencies beyond the standard
// library so the regression gate runs anywhere the toolchain does;
// benchstat remains the human-facing comparison view.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	var (
		out      = flag.String("out", "", "write the JSON report to this file (default stdout)")
		check    = flag.Bool("check", false, "compare against -baseline instead of emitting JSON")
		baseline = flag.String("baseline", "bench/baseline.txt", "baseline benchmark capture for -check")
		gate     = flag.String("gate",
			"BenchmarkSystemEpoch/serial,"+
				"BenchmarkNoCStep,BenchmarkThermalStep/cores=1024,BenchmarkSystemRun32",
			"comma-separated benchmarks gated by -check")
		threshold = flag.Float64("threshold", 0.10, "fractional ns/op regression allowed by -check")
		maxAllocs = flag.String("max-allocs",
			"BenchmarkNoCStep=0",
			"comma-separated Name=limit ceilings on mean allocs/op, checked by -check")
	)
	flag.Parse()

	cur, err := readBenchmarks(flag.Args())
	if err != nil {
		fatal(err)
	}
	if len(cur.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	if *check {
		base, err := readFile(*baseline)
		if err != nil {
			fatal(fmt.Errorf("reading baseline: %w", err))
		}
		failures := Gate(base, cur, strings.Split(*gate, ","), *threshold)
		failures = append(failures, GateCeilings(cur, "allocs/op", strings.Split(*maxAllocs, ","))...)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		if len(failures) > 0 {
			os.Exit(1)
		}
		fmt.Printf("benchreport: %d gated benchmarks within %.0f%% of baseline; ceilings hold\n",
			len(strings.Split(*gate, ",")), *threshold*100)
		return
	}

	blob, err := cur.JSON()
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchreport: wrote %d benchmarks to %s\n", len(cur.Benchmarks), *out)
}

func readBenchmarks(paths []string) (*Report, error) {
	if len(paths) == 0 {
		text, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, err
		}
		return Parse(string(text)), nil
	}
	merged := &Report{}
	for _, p := range paths {
		r, err := readFile(p)
		if err != nil {
			return nil, err
		}
		merged.merge(r)
	}
	return merged, nil
}

func readFile(path string) (*Report, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(string(text)), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(2)
}
