// Command dse explores the design space a deployer of power-aware online
// testing actually faces.
//
// Campaign mode (-campaign) is the flagship workload: a JSON campaign
// spec enumerates a (mesh x tech node x TDP fraction x interval x
// policy x seed) space, internal/dse runs it on a worker pool with an
// optional short-horizon screening rung, and the result is the Pareto
// frontier over {throughput penalty, test coverage, peak temperature,
// power headroom}. The campaign journals every verdict, so it can be
// SIGKILLed at any instant and resumed with -resume to a byte-identical
// frontier; poisoned cells (panic, timeout, guard violation) are
// quarantined and reported instead of aborting the run.
//
// Without -campaign the classic inline sweep runs: (TDP fraction x base
// test interval) with throughput penalty, test energy and fault
// detection latency as the objectives.
//
// Usage:
//
//	dse -campaign configs/campaign-default.json -dir state -workers 8
//	dse -campaign spec.json -dir state -resume -csv frontier.csv
//	dse -campaign spec.json -dir state -store stores/   # per-stage columnar outcome stores
//	dse -tdp 0.25,0.35,0.5 -interval 20ms,50ms,100ms -horizon 300ms -seeds 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"potsim/internal/checkpoint"
	"potsim/internal/core"
	"potsim/internal/dse"
	"potsim/internal/expt"
	"potsim/internal/metrics"
	"potsim/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "dse: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dse", flag.ContinueOnError)
	// Campaign mode.
	campaign := fs.String("campaign", "", "campaign spec JSON; switches to the crash-proof campaign engine")
	dir := fs.String("dir", "", "campaign state directory (journals live here; required with -campaign)")
	resume := fs.Bool("resume", false, "resume the campaign from the journals in -dir")
	workers := fs.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS); never affects results")
	quarantineReport := fs.String("quarantine-report", "", "write the quarantine record as JSON")
	statusFile := fs.String("status-file", "", "atomically rewrite campaign progress JSON here")
	cellTimeout := fs.Duration("cell-timeout", 2*time.Minute, "watchdog deadline per campaign cell (0 = none)")
	retries := fs.Int("retries", 1, "retry budget per campaign cell")
	retryBackoff := fs.Duration("retry-backoff", 100*time.Millisecond, "base retry backoff (doubles per retry, capped at 10x)")
	chaosFlag := fs.String("chaos", "", "inject failures into matching cells: mode[:labelsubstring] (testing only)")
	// Shared / classic sweep mode.
	tdpList := fs.String("tdp", "0.25,0.35,0.50", "comma-separated TDP fractions (sweep mode)")
	ivList := fs.String("interval", "20ms,50ms,100ms", "comma-separated criticality base intervals (sweep mode)")
	horizon := fs.Duration("horizon", 300*time.Millisecond, "simulated horizon per point (sweep mode)")
	seeds := fs.Int("seeds", 2, "replications per point (sweep mode)")
	csvPath := fs.String("csv", "", "write the frontier (or sweep) as CSV")
	storeDir := fs.String("store", "", "campaign mode: write per-stage columnar result stores under this root (query with cmd/results)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *campaign != "" {
		return runCampaign(campaignOptions{
			specPath:         *campaign,
			dir:              *dir,
			resume:           *resume,
			workers:          *workers,
			csvPath:          *csvPath,
			storeDir:         *storeDir,
			quarantineReport: *quarantineReport,
			statusFile:       *statusFile,
			cellTimeout:      *cellTimeout,
			retries:          *retries,
			retryBackoff:     *retryBackoff,
			chaos:            *chaosFlag,
		})
	}
	if *resume {
		return fmt.Errorf("-resume needs -campaign (the classic sweep has no journal)")
	}
	return runSweep(*tdpList, *ivList, *horizon, *seeds, *csvPath)
}

// campaignOptions carries the campaign-mode flag values.
type campaignOptions struct {
	specPath         string
	dir              string
	resume           bool
	workers          int
	csvPath          string
	storeDir         string
	quarantineReport string
	statusFile       string
	cellTimeout      time.Duration
	retries          int
	retryBackoff     time.Duration
	chaos            string
}

// runCampaign drives the crash-proof campaign engine. Quarantined cells
// are not an error — the campaign completes with a partial frontier and
// exit code 0; only infrastructure failures (unusable journal, spec
// mismatch, interruption) are.
func runCampaign(o campaignOptions) error {
	if o.dir == "" {
		return fmt.Errorf("campaign mode needs -dir (the journals are the resume state)")
	}
	spec, err := dse.LoadSpec(o.specPath)
	if err != nil {
		return err
	}
	chaos, err := expt.ParseChaos(o.chaos)
	if err != nil {
		return err
	}
	eng := &dse.Engine{
		Spec:         spec,
		Dir:          o.dir,
		Resume:       o.resume,
		Workers:      o.workers,
		CellTimeout:  o.cellTimeout,
		Retries:      o.retries,
		RetryBackoff: o.retryBackoff,
		Chaos:        chaos,
		Stderr:       os.Stderr,
		StatusPath:   o.statusFile,
		StoreDir:     o.storeDir,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := eng.Run(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return context.Canceled
		}
		return err
	}
	fmt.Print(res.Table().Render())
	fmt.Printf("\n%s: %d-cell Pareto frontier over %d cells (%d survivors), %s\n",
		spec.Name, len(res.Frontier), res.Total, res.Survivors, res.Quarantine.Summary())
	if o.csvPath != "" {
		if err := checkpoint.WriteFileAtomic(o.csvPath, []byte(res.CSV()), 0o644); err != nil {
			return err
		}
	}
	if o.quarantineReport != "" {
		blob, err := res.Quarantine.JSON()
		if err != nil {
			return err
		}
		if err := checkpoint.WriteFileAtomic(o.quarantineReport, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// parseFloatList parses a comma-separated float list strictly: every
// token must be a whole, finite number — "0.5x", "1e" and empty tokens
// are errors, not silent truncations.
func parseFloatList(flagName, list string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return nil, fmt.Errorf("bad %s entry %q: empty token", flagName, tok)
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %w", flagName, tok, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad %s entry %q: not a finite number", flagName, tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// runSweep is the classic inline (TDP x interval) sweep.
func runSweep(tdpList, ivList string, horizon time.Duration, seeds int, csvPath string) error {
	tdps, err := parseFloatList("-tdp", tdpList)
	if err != nil {
		return err
	}
	for _, v := range tdps {
		if v <= 0 || v > 1 {
			return fmt.Errorf("bad -tdp entry %v: outside (0, 1]", v)
		}
	}
	var ivs []time.Duration
	for _, tok := range strings.Split(ivList, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(tok))
		if err != nil || d <= 0 {
			return fmt.Errorf("bad -interval entry %q", tok)
		}
		ivs = append(ivs, d)
	}
	if seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1")
	}

	type point struct {
		tdp      float64
		interval time.Duration
		penalty  float64 // %
		energy   float64 // % of consumed energy
		latency  float64 // ms mean detection latency
	}
	var points []point
	for _, tdp := range tdps {
		for _, iv := range ivs {
			var pen, en, lat float64
			for s := 1; s <= seeds; s++ {
				cfg := core.DefaultConfig()
				cfg.Horizon = sim.FromDuration(horizon)
				cfg.TDPFraction = tdp
				cfg.Criticality.BaseInterval = sim.FromDuration(iv)
				cfg.MapperName = "NN" // identical mapping across policies
				cfg.EnableFaults = true
				cfg.Faults.BaseRatePerSec = 0.1
				cfg.Seed = uint64(s)
				rep, err := runOne(cfg)
				if err != nil {
					return err
				}
				cfg.TestPolicy = core.PolicyNoTest
				ref, err := runOne(cfg)
				if err != nil {
					return err
				}
				pen += 100 * rep.ThroughputPenalty(ref)
				en += 100 * rep.TestEnergyShare
				lat += rep.FaultStats.MeanLatency.Millis()
			}
			n := float64(seeds)
			points = append(points, point{
				tdp: tdp, interval: iv,
				penalty: pen / n, energy: en / n, latency: lat / n,
			})
		}
	}

	objectives := make([][]float64, len(points))
	for i, p := range points {
		pen := p.penalty
		if pen < 0 {
			pen = 0 // faster-than-baseline is as good as free
		}
		objectives[i] = []float64{pen, p.energy, p.latency}
	}
	front, err := metrics.ParetoMin(objectives)
	if err != nil {
		return err
	}

	t := metrics.NewTable(
		"design-space sweep: budget x test-interval (objectives minimised)",
		"tdp-frac", "base-interval", "penalty(%)", "test-energy(%)",
		"detect-latency(ms)", "pareto")
	for i, p := range points {
		mark := ""
		if front[i] {
			mark = "*"
		}
		t.AddRow(p.tdp, p.interval.String(), p.penalty, p.energy, p.latency, mark)
	}
	fmt.Print(t.Render())
	fmt.Println("\n'*' marks Pareto-optimal configurations.")
	if csvPath != "" {
		if err := checkpoint.WriteFileAtomic(csvPath, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func runOne(cfg core.Config) (*core.Report, error) {
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}
