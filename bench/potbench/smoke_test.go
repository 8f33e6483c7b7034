package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// benchmarkNames reads the metric names BENCHMARK.json promises.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func metricNames(m map[string]metric) []string {
	var names []string
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload at about 1/50 scale, untraced and (for
// one sim workload) traced, and requires correct outputs — including
// the scale-independent golden checks — and exactly the metrics
// BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	endToEnd, perLayer := benchmarkNames(t)
	runs := []options{{workload: "sim-8x8", trace: t.TempDir() + "/spans.json"}}
	for _, w := range workloadOrder {
		runs = append(runs, options{workload: w, trace: "0"})
	}
	for _, o := range runs {
		o.seed, o.smoke, o.seconds = 3, true, 0.3
		if o.workload == "daemon" {
			o.seconds = 1
		}
		var out bytes.Buffer
		res, err := runOne(o, &out)
		if err != nil {
			t.Fatalf("%s: %v\n%s", o.workload, err, out.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", o.workload, o.trace,
				res.Correct, res.Attempted, res.Failed, out.String())
		}
		want := endToEnd
		if o.trace != "0" {
			want = perLayer
		}
		if got := metricNames(res.Metrics); !slices.Equal(got, want) {
			t.Errorf("%s trace=%s printed metrics %v, BENCHMARK.json lists %v", o.workload, o.trace, got, want)
		}
		if o.trace == "0" {
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s: %s = %v, want a positive value", o.workload, name, m.Value)
				}
			}
		}
	}
}
