package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runRecord is one benchmark run as the runs files store it.
type runRecord struct {
	Set      string            `json:"set"`
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Result   result            `json:"result"`
	Notes    map[string]metric `json:"notes,omitempty"`
	Digest   string            `json:"digest,omitempty"`
}

// runsFile is a set of recorded runs with where they were made.
type runsFile struct {
	Label   string      `json:"label"`
	Host    string      `json:"host"`
	Date    string      `json:"date"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// runAll runs every workload in its own process, so each reports its
// own peak memory and none inherits another's heap.
func runAll(o options, stdout io.Writer) error {
	var failed []string
	for _, name := range workloadOrder {
		fmt.Fprintf(stdout, "== %s\n", name)
		o.workload = name
		if _, err := runChild(o, stdout); err != nil {
			fmt.Fprintf(os.Stderr, "potbench: %s: %v\n", name, err)
			failed = append(failed, name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %s", strings.Join(failed, ", "))
	}
	return nil
}

// runChild runs one workload as a child process, copying its output to
// stdout, and parses what it printed.
func runChild(o options, stdout io.Writer) (*runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", o.trace}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.goldenOut != "" {
		args = append(args, "-golden-out", o.goldenOut)
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	rec, perr := parseRunOutput(out.Bytes())
	if rec != nil {
		rec.Workload, rec.Seed, rec.Trace = o.workload, o.seed, o.trace != "0"
	}
	if runErr != nil {
		return rec, runErr
	}
	return rec, perr
}

// parseRunOutput reads a run's "name value unit" lines and its final
// JSON result line.
func parseRunOutput(out []byte) (*runRecord, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		return nil, errors.New("run printed nothing")
	}
	rec := &runRecord{Notes: map[string]metric{}}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == "digest" {
			rec.Digest = f[1]
			continue
		}
		if len(f) != 3 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) { // NaN: no samples, e.g. no dedups
			continue
		}
		if _, ok := rec.Result.Metrics[f[0]]; !ok {
			rec.Notes[f[0]] = metric{v, f[2]}
		}
	}
	return rec, nil
}

// recordMain runs sets of untraced runs plus one traced run per
// workload and writes them as a runs file for compare.
func recordMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("potbench record", flag.ContinueOnError)
	out := fs.String("out", "", "runs file to write (required)")
	label := fs.String("label", "", "what was measured, e.g. the commit")
	sets := fs.String("sets", "a,b", "comma-separated set names; sets alternate run by run")
	n := fs.Int("n", 5, "untraced runs per set and workload, seeds 1..n")
	seconds := fs.Float64("seconds", 20, "timed window per run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("record: -out is required")
	}
	rf := runsFile{
		Label:   *label,
		Host:    fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		Date:    time.Now().UTC().Format("2006-01-02"),
		Seconds: *seconds,
	}
	do := func(set string, o options) error {
		fmt.Fprintf(stdout, "== set=%s %s seed=%d trace=%s\n", set, o.workload, o.seed, o.trace)
		rec, err := runChild(o, io.Discard)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", o.workload, o.seed, err)
		}
		rec.Set = set
		rf.Runs = append(rf.Runs, *rec)
		fmt.Fprintf(stdout, "   correct=%v metrics=%v\n", rec.Result.Correct, rec.Result.Metrics)
		return nil
	}
	for i := 1; i <= *n; i++ {
		for _, set := range strings.Split(*sets, ",") {
			for _, name := range workloadOrder {
				o := options{workload: name, seed: uint64(i), seconds: *seconds, trace: "0"}
				if err := do(set, o); err != nil {
					return err
				}
			}
		}
	}
	for _, name := range workloadOrder {
		o := options{workload: name, seed: 1, seconds: *seconds, trace: "1"}
		if err := do("traced", o); err != nil {
			return err
		}
	}
	blob, err := json.MarshalIndent(&rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(blob, '\n'), 0o644)
}

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRuns reads "FILE" or "FILE:SET" and returns its untraced runs.
func loadRuns(arg string) ([]runRecord, error) {
	path, set := arg, ""
	if i := strings.LastIndex(arg, ":"); i > 0 {
		path, set = arg[:i], arg[i+1:]
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runsFile
	if err := json.Unmarshal(blob, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []runRecord
	for _, r := range rf.Runs {
		if !r.Trace && (set == "" || r.Set == set) {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s has no untraced runs in set %q", path, set)
	}
	return out, nil
}

// minPairs is the fewest seed-paired runs a gain can rest on.
const minPairs = 10

// verdict is compare's judgement of one (workload, metric).
type verdict struct {
	baseQ, headQ [3]float64 // q1, median, q3
	wins, pairs  int        // head better than base, pairs without ties
	verdict      string
}

// judge applies the rules for claiming a change: a gain needs at least
// minPairs seed-paired runs, the head winning 9 in 10 of them (ties count
// for neither), and a median gap wider than the base runs' interquartile
// range; a
// regression is a head median worse than the base median by more than
// the metric's bound; a base spread wider than the bound leaves the
// metric unresolved unless every head run beats every base run.
func judge(base, head map[uint64][]float64, lowerBetter bool, bound float64) verdict {
	var b, h []float64
	var v verdict
	better := func(x, y float64) bool {
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	seeds := make([]uint64, 0, len(base))
	for s := range base {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		b = append(b, base[s]...)
		h = append(h, head[s]...)
		for i := 0; i < min(len(base[s]), len(head[s])); i++ {
			x, y := head[s][i], base[s][i]
			if x == y {
				continue
			}
			v.pairs++
			if better(x, y) {
				v.wins++
			}
		}
	}
	for s, xs := range head {
		if _, ok := base[s]; !ok {
			h = append(h, xs...)
		}
	}
	v.baseQ[0], v.baseQ[1], v.baseQ[2] = quartiles(b)
	v.headQ[0], v.headQ[1], v.headQ[2] = quartiles(h)
	bm, hm := v.baseQ[1], v.headQ[1]
	iqr := v.baseQ[2] - v.baseQ[0]
	worse := (hm - bm) / bm
	if !lowerBetter {
		worse = -worse
	}
	allBetter := len(h) > 0 && len(b) > 0
	for _, x := range h {
		for _, y := range b {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case len(b) == 0 || len(h) == 0 || bm == 0 || math.IsNaN(bm) || math.IsNaN(hm):
		v.verdict = "unresolved"
	case v.pairs >= minPairs && float64(v.wins) >= 0.9*float64(v.pairs) && better(hm, bm) && math.Abs(hm-bm) > iqr:
		v.verdict = "improved"
	case worse > bound:
		v.verdict = "regressed"
	case iqr/math.Abs(bm) > bound && !allBetter:
		v.verdict = "unresolved"
	default:
		v.verdict = "unchanged"
	}
	return v
}

// compareMain prints, per workload and end-to-end metric, both sides'
// quartiles, the head's win count and a verdict. It fails when any
// metric regressed.
func compareMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("potbench compare", flag.ContinueOnError)
	basePath := fs.String("base", "", "runs of the parent: FILE or FILE:SET")
	headPath := fs.String("head", "", "runs of the change: FILE or FILE:SET")
	benchPath := fs.String("bench", "", "BENCHMARK.json holding the bounds (default: found from the working directory up)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *headPath == "" {
		return errors.New("compare: -base and -head are required")
	}
	spec, err := loadBenchSpec(*benchPath)
	if err != nil {
		return err
	}
	base, err := loadRuns(*basePath)
	if err != nil {
		return err
	}
	head, err := loadRuns(*headPath)
	if err != nil {
		return err
	}
	group := func(rs []runRecord, workload, name string) map[uint64][]float64 {
		out := map[uint64][]float64{}
		for _, r := range rs {
			if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload {
				out[r.Seed] = append(out[r.Seed], m.Value)
			}
		}
		return out
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-12s %-14s %6s  %-32s %-32s %7s  %s\n", "workload", "metric", "bound", "base q1/median/q3", "head q1/median/q3", "wins", "verdict")
	regressed := 0
	for _, wl := range workloadOrder {
		for _, m := range spec.EndToEnd {
			b, h := group(base, wl, m.Name), group(head, wl, m.Name)
			if len(b) == 0 && len(h) == 0 {
				continue
			}
			v := judge(b, h, m.Better == "lower", m.Bound)
			if v.verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-14s %5.0f%%  %-32s %-32s %3d/%-3d  %s\n", wl, m.Name, 100*m.Bound,
				fmt.Sprintf("%.4g/%.4g/%.4g", v.baseQ[0], v.baseQ[1], v.baseQ[2]),
				fmt.Sprintf("%.4g/%.4g/%.4g", v.headQ[0], v.headQ[1], v.headQ[2]),
				v.wins, v.pairs, v.verdict)
		}
	}
	if regressed > 0 {
		w.Flush()
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}

// loadBenchSpec reads BENCHMARK.json from path, or looks for it in the
// working directory and its parents.
func loadBenchSpec(path string) (*benchSpec, error) {
	if path == "" {
		for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json", "../../BENCHMARK.json"} {
			if _, err := os.Stat(p); err == nil {
				path = p
				break
			}
		}
		if path == "" {
			return nil, errors.New("compare: BENCHMARK.json not found; pass -bench")
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
