package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// Benchmark is one named benchmark with its metrics averaged over every
// parsed result line (repeated -count invocations collapse into one
// entry). Metrics maps a unit ("ns/op", "B/op", "allocs/op", custom
// ReportMetric units) to its mean value across runs.
type Benchmark struct {
	Name       string             `json:"name"`
	Runs       int                `json:"runs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the parsed form of one or more `go test -bench` outputs.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`

	index map[string]int
	sums  []map[string]float64 // parallel to Benchmarks; per-unit sums
}

// Parse extracts benchmark results from go-test output. Lines that are
// not benchmark results (test logs, PASS/ok trailers) are ignored.
func Parse(text string) *Report {
	r := &Report{index: map[string]int{}}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			r.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			r.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			r.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is: Name N value unit [value unit]...
		if len(fields) < 4 || (len(fields)-2)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		metrics := map[string]float64{}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			metrics[fields[i+1]] = v
		}
		if !ok || len(metrics) == 0 {
			continue
		}
		r.add(normalizeName(fields[0]), 1, iters, metrics)
	}
	r.refold()
	return r
}

// normalizeName strips the trailing -GOMAXPROCS suffix so runs captured
// on machines with different core counts stay comparable.
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	suffix := name[i+1:]
	if suffix == "" {
		return name
	}
	for _, c := range suffix {
		if !unicode.IsDigit(c) {
			return name
		}
	}
	return name[:i]
}

// add folds `runs` result lines whose per-unit SUMS are given.
func (r *Report) add(name string, runs int, iters int64, sums map[string]float64) {
	if r.index == nil {
		r.index = map[string]int{}
	}
	idx, seen := r.index[name]
	if !seen {
		idx = len(r.Benchmarks)
		r.index[name] = idx
		r.Benchmarks = append(r.Benchmarks, Benchmark{Name: name})
		r.sums = append(r.sums, map[string]float64{})
	}
	b := &r.Benchmarks[idx]
	b.Runs += runs
	b.Iterations += iters
	for unit, v := range sums {
		r.sums[idx][unit] += v
	}
}

// refold recomputes every benchmark's means from the running sums.
func (r *Report) refold() {
	for i := range r.Benchmarks {
		b := &r.Benchmarks[i]
		b.Metrics = map[string]float64{}
		for unit, sum := range r.sums[i] {
			b.Metrics[unit] = sum / float64(b.Runs)
		}
	}
}

// merge folds another parsed report into this one.
func (r *Report) merge(other *Report) {
	if r.Goos == "" {
		r.Goos, r.Goarch, r.CPU = other.Goos, other.Goarch, other.CPU
	}
	for i, b := range other.Benchmarks {
		r.add(b.Name, b.Runs, b.Iterations, other.sums[i])
	}
	r.refold()
}

// Mean returns the benchmark's mean for a unit; ok reports presence.
func (r *Report) Mean(name, unit string) (float64, bool) {
	idx, seen := r.index[name]
	if !seen {
		return 0, false
	}
	v, seen := r.Benchmarks[idx].Metrics[unit]
	return v, seen
}

// JSON renders the report with stable benchmark ordering.
func (r *Report) JSON() ([]byte, error) {
	sorted := make([]Benchmark, len(r.Benchmarks))
	copy(sorted, r.Benchmarks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	out := *r
	out.Benchmarks = sorted
	blob, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// Gate compares the gated benchmarks' mean ns/op between baseline and
// current, returning one message per violation. A gated benchmark
// missing from either side is a violation: a silently vanished
// benchmark must not green the gate.
func Gate(base, cur *Report, gated []string, threshold float64) []string {
	var failures []string
	for _, name := range gated {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, okB := base.Mean(name, "ns/op")
		c, okC := cur.Mean(name, "ns/op")
		switch {
		case !okB:
			failures = append(failures,
				fmt.Sprintf("%s: missing from baseline (refresh bench/baseline.txt)", name))
		case !okC:
			failures = append(failures,
				fmt.Sprintf("%s: missing from current run", name))
		case c > b*(1+threshold):
			failures = append(failures,
				fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (+%.1f%%, limit +%.0f%%)",
					name, c, b, (c/b-1)*100, threshold*100))
		}
	}
	return failures
}

// GateCeilings enforces absolute per-benchmark ceilings on one metric
// of the current capture: each spec is "Name=limit" (comma-separated in
// the flag). Unlike the relative ns/op gate, ceilings need no baseline,
// so they suit contracts that are absolute by nature, such as an alloc
// count that must stay zero.
func GateCeilings(cur *Report, unit string, specs []string) []string {
	var failures []string
	for _, spec := range specs {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, limitStr, ok := strings.Cut(spec, "=")
		if !ok {
			failures = append(failures, fmt.Sprintf("bad ceiling spec %q (want Name=limit)", spec))
			continue
		}
		limit, err := strconv.ParseFloat(limitStr, 64)
		if err != nil {
			failures = append(failures, fmt.Sprintf("bad ceiling limit in %q: %v", spec, err))
			continue
		}
		v, found := cur.Mean(name, unit)
		switch {
		case !found:
			failures = append(failures,
				fmt.Sprintf("%s: missing from current run (ceiling %g %s)", name, limit, unit))
		case v > limit:
			failures = append(failures,
				fmt.Sprintf("%s: %g %s exceeds ceiling %g %s", name, v, unit, limit, unit))
		}
	}
	return failures
}
