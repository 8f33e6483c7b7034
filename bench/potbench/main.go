// Command potbench is potsim's end-to-end benchmark. It runs one
// workload (or all of them, each in its own process), checks that the
// program's outputs are correct, and prints every metric as
// "name value unit" followed by one JSON result line:
//
//	go run . -workload sim-8x8 -seed 1 -seconds 12 -trace 0
//	go run . -workload all
//	go run . compare -base runs/a.json:a -head runs/a.json:b
//	go run . record -out runs/new.json
//
// With -trace 1 (or -trace FILE) the run instead reports the per-layer
// ledger: spans around every call into a layer, and a snapshot replay
// that times one epoch of each layer's public calls. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"potsim/internal/core"
	"potsim/internal/sim"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"sim-8x8":     simWorkload{config: core.DefaultConfig, unit: sim.Second, check: 50 * sim.Millisecond, every: 100}.run,
	"mesh-32x32":  simWorkload{config: mesh32Config, unit: 200 * sim.Millisecond, check: 10 * sim.Millisecond, every: 50}.run,
	"campaign":    runCampaign,
	"daemon":      runDaemon,
	"quick-suite": runSuite,
}

// workloadOrder is the order "-workload all" runs them in.
var workloadOrder = []string{"sim-8x8", "mesh-32x32", "campaign", "daemon", "quick-suite"}

// setupReps is how many times a run repeats its set-up (3 at smoke
// scale); setup_s is the median, so one cold start (page faults, lazy
// package state) does not decide it.
func (r *run) setupReps() int {
	if r.smoke {
		return 3
	}
	return 21
}

//go:embed golden.json
var goldenJSON []byte

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one workload run: its inputs and everything it measured.
type run struct {
	name      string
	seed      uint64
	window    time.Duration
	smoke     bool
	dir       string // scratch directory, removed at exit
	tr        *tracer
	led       *ledger
	golden    map[string]string
	newGolden map[string]string // digests to write with -golden-out

	// Host times below are scaled to the nominal host (hostspeed.go),
	// except the daemon's set-up and throughput.
	setup     []float64     // seconds per set-up repetition
	refs      []float64     // reference kernel ms beside the timed work
	ops       []float64     // ms per operation
	simMS     float64       // simulated ms completed in the window
	hostS     float64       // host seconds that simulated time took
	pendOps   []float64     // raw ops since the last kernel sample
	pendHost  float64       // raw host seconds since the last kernel sample
	wall      time.Duration // length of the timed window
	overhead  time.Duration // tracing work inside the window
	attempted int
	failed    int
	problems  []string
	notes     []note
	digest    string
}

type note struct {
	name string
	metric
}

// problem records a correctness failure; the run then reports
// correct=false and exits non-zero.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note records a workload-specific measurement printed beside the
// end-to-end metrics.
func (r *run) note(name string, v float64, unit string) {
	r.notes = append(r.notes, note{name, metric{v, unit}})
}

// checkGolden compares an output digest with golden.json.
func (r *run) checkGolden(key, digest string) {
	if r.newGolden != nil {
		r.newGolden[key] = digest
		return
	}
	want, ok := r.golden[key]
	switch {
	case !ok:
		r.problem("golden.json has no digest for %s", key)
	case want != digest:
		r.problem("%s: output digest %.16s differs from golden %.16s", key, digest, want)
	}
}

// timeSetup records setupReps samples of a workload's set-up time; once
// performs one set-up and returns how long it took, excluding any
// teardown. A sample is the mean of batch set-ups run back to back from
// a collected heap: a single sub-millisecond set-up right after a
// collection mostly measures the collection's disturbance, not the
// set-up. A CPU-bound set-up's samples are each scaled by a kernel
// sample taken after them; one that mostly waits on system calls and
// wake-ups is not, since the kernel does not model those.
func (r *run) timeSetup(batch int, cpuBound bool, once func() (time.Duration, error)) error {
	for i := 0; i < r.setupReps(); i++ {
		runtime.GC()
		var sum time.Duration
		for j := 0; j < batch; j++ {
			d, err := once()
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			sum += d
		}
		s := sum.Seconds() / float64(batch)
		if cpuBound {
			s *= refNominalMS / sampleRef()
		}
		r.setup = append(r.setup, s)
	}
	return nil
}

// loop runs timed units back to back until the window is spent, with the
// reference kernel after each. A unit is started only if the median unit
// so far still fits, so a run ends near the window instead of one whole
// unit past it; at least one unit always runs.
func (r *run) loop(unit func(i int) error) error {
	start := time.Now()
	var durs []float64
	for i := 0; ; i++ {
		t := time.Now()
		r.attempted++
		fails := len(r.problems)
		if err := unit(i); err != nil {
			return err
		}
		if len(r.problems) > fails {
			r.failed++
		}
		durs = append(durs, time.Since(t).Seconds())
		r.calibrate()
		if time.Since(start).Seconds()+median(durs) > r.window.Seconds() {
			break
		}
	}
	r.wall = time.Since(start)
	if r.led != nil {
		r.overhead = r.led.spent + r.tr.overhead()
	}
	return nil
}

func main() {
	cmd := ""
	if len(os.Args) > 1 {
		cmd = os.Args[1]
	}
	var err error
	switch cmd {
	case "compare":
		err = compareMain(os.Args[2:], os.Stdout)
	case "record":
		err = recordMain(os.Args[2:], os.Stdout)
	default:
		err = runMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "potbench:", err)
		os.Exit(1)
	}
}

// options are the flags of a workload run.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     string
	smoke     bool
	goldenOut string
}

func parseRunFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("potbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed window")
	fs.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1 or a file name: per-layer ledger (spans go to the file, or under .bench_build)")
	fs.BoolVar(&o.smoke, "smoke", false, "run at about 1/50 scale (tests)")
	fs.StringVar(&o.goldenOut, "golden-out", "", "write this run's golden digests to the file instead of checking them")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.workload == "" {
		return o, errors.New("-workload is required")
	}
	if o.workload != "all" && workloads[o.workload] == nil {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadOrder, ", "))
	}
	if !(o.seconds > 0) {
		return o, errors.New("-seconds must be positive")
	}
	return o, nil
}

func runMain(args []string, stdout io.Writer) error {
	o, err := parseRunFlags(args)
	if err != nil {
		return err
	}
	if o.workload == "all" {
		return runAll(o, stdout)
	}
	res, err := runOne(o, stdout)
	if err != nil {
		return err
	}
	if !res.Correct {
		return errors.New("output check failed")
	}
	return nil
}

// runOne runs a single workload in this process and prints its metrics
// and result line.
func runOne(o options, stdout io.Writer) (*result, error) {
	dir, err := os.MkdirTemp("", "potbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		name:   o.workload,
		seed:   o.seed,
		window: time.Duration(o.seconds * float64(time.Second)),
		smoke:  o.smoke,
		dir:    dir,
	}
	if err := json.Unmarshal(goldenJSON, &r.golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if o.goldenOut != "" {
		r.newGolden = map[string]string{}
	}
	traced := o.trace != "0" && o.trace != ""
	if traced {
		r.tr = newTracer()
		r.led = newLedger(dir)
	}
	if err := workloads[o.workload](r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if o.goldenOut != "" {
		if err := mergeGolden(o.goldenOut, r.newGolden); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed}
	if traced {
		res.Metrics = r.layerMetrics()
		path := o.trace
		if path == "1" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
		}
		if err := r.tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		printSelfTimes(stdout, r.tr.snapshot())
	} else {
		res.Metrics = r.endToEnd()
	}
	printMetrics(stdout, res.Metrics)
	// Peak memory is printed but not gated: E11's flit-mode transients
	// make the quick suite's peak depend on when the collector runs.
	r.note("peak_rss_mb", peakRSSMB(), "MB")
	r.note("wall_s", r.wall.Seconds(), "s")
	r.note("ref_ms_p50", median(r.refs), "ms")
	r.note("error_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "%s %v %s\n", n.name, n.Value, n.Unit)
	}
	if r.digest != "" {
		fmt.Fprintf(stdout, "digest %s\n", r.digest)
	}
	for _, p := range r.problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// endToEnd derives the end-to-end metrics BENCHMARK.json lists from a run.
func (r *run) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":      {median(r.setup), "s"},
		"op_ms_p50":    {median(r.ops), "ms"},
		"sim_ms_per_s": {r.simMS / r.hostS, "ms/s"},
	}
}

// layerMetrics derives the per-layer ledger of a traced run.
func (r *run) layerMetrics() map[string]metric {
	l := r.led
	m := map[string]metric{}
	// Layer times and work counts are means per replayed epoch, epochs
	// where a layer had nothing to do counting as zero, so they add up
	// to the mean epoch they share.
	perEpoch := func(name, unit string) {
		sum := 0.0
		for _, x := range l.samples[name] {
			sum += x
		}
		m[name] = metric{sum / float64(l.seen), unit}
	}
	for _, name := range replayLayers {
		perEpoch(name, "us")
	}
	for _, name := range []string{"sbst.tests_in_flight", "scheduler.launches", "mapping.pending"} {
		perEpoch(name, "count")
	}
	// The durability paths run every roundTrip-th snapshot; their
	// medians are per call.
	for _, name := range []string{"core.snapshot_ms", "core.new_ms", "core.restore_ms", "checkpoint.save_ms", "checkpoint.load_ms"} {
		m[name] = metric{median(l.samples[name]), "ms"}
	}
	m["checkpoint.bytes"] = metric{median(l.samples["checkpoint.bytes"]), "B"}
	epoch := mean(l.epochs)
	m["core.epoch_us"] = metric{epoch, "us"}
	m["core.layer_coverage"] = metric{mean(l.samples["layers_us"]) / epoch, "ratio"}
	wall := r.wall
	if wall <= 0 {
		wall = time.Nanosecond
	}
	m["trace_overhead"] = metric{r.overhead.Seconds() / wall.Seconds(), "ratio"}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[name] = v
		}
	}
	return m
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %v %s\n", name, m[name].Value, m[name].Unit)
	}
}

// printSelfTimes prints each span name's total self time, slowest
// first, so a traced run shows where host time went between layers.
func printSelfTimes(w io.Writer, spans []span) {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].Self > st[names[j]].Self })
	for _, name := range names {
		fmt.Fprintf(w, "span %s self_ms=%.3f count=%d\n", name, ms(st[name].Self), st[name].Count)
	}
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// mergeGolden adds digests to the golden file at path.
func mergeGolden(path string, add map[string]string) error {
	all := map[string]string{}
	if blob, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(blob, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range add {
		all[k] = v
	}
	blob, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
