// Command dse explores the design space a deployer of power-aware online
// testing actually faces.
//
// A JSON campaign spec (-campaign) enumerates a (mesh x tech node x TDP
// fraction x interval x policy x seed) space, internal/dse runs it on a
// worker pool with an optional short-horizon screening rung, and the
// result is the Pareto frontier over {throughput penalty, test
// coverage, peak temperature, power headroom}. The campaign journals
// every verdict, so it can be SIGKILLed at any instant and resumed with
// -resume to a byte-identical frontier; poisoned cells (panic, timeout,
// guard violation) are quarantined and reported instead of aborting the
// run. configs/sweep-16nm.json is the 8x8 16nm (TDP fraction x base
// test interval) sweep; its per-point means of penalty, test energy and
// fault-detection latency are one cmd/results query over the -store.
//
// Usage:
//
//	dse -campaign configs/campaign-default.json -dir state -workers 8
//	dse -campaign spec.json -dir state -resume -csv frontier.csv
//	dse -campaign spec.json -dir state -store stores/   # per-stage outcome stores: stores/screen.csv, stores/full.csv
//	dse -campaign configs/sweep-16nm.json -dir state -store stores/
//	results query -store stores/full.csv -group-by tdpFraction,intervalMS \
//	    -agg mean:penaltyPct,mean:testEnergyPct,mean:detectLatencyMS
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"potsim/internal/checkpoint"
	"potsim/internal/dse"
	"potsim/internal/expt"
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

// run drives the crash-proof campaign engine. Quarantined cells are not
// an error — the campaign completes with a partial frontier and exit
// code 0; only infrastructure failures (unusable journal, spec mismatch,
// interruption) are.
func run(args []string) error {
	fs := flag.NewFlagSet("dse", flag.ContinueOnError)
	campaign := fs.String("campaign", "", "campaign spec JSON (required)")
	dir := fs.String("dir", "", "campaign state directory (journals live here; required)")
	resume := fs.Bool("resume", false, "resume the campaign from the journals in -dir")
	workers := fs.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS); never affects results")
	quarantineReport := fs.String("quarantine-report", "", "write the quarantine record as JSON")
	statusFile := fs.String("status-file", "", "atomically rewrite campaign progress JSON here")
	cellTimeout := fs.Duration("cell-timeout", 2*time.Minute, "watchdog deadline per campaign cell (0 = none)")
	retries := fs.Int("retries", 1, "retry budget per campaign cell")
	retryBackoff := fs.Duration("retry-backoff", 100*time.Millisecond, "base retry backoff (doubles per retry, capped at 10x)")
	chaosFlag := fs.String("chaos", "", "inject failures into matching cells: mode[:labelsubstring] (testing only)")
	csvPath := fs.String("csv", "", "write the frontier as CSV")
	storeDir := fs.String("store", "", "write per-stage result stores (<root>/screen.csv, <root>/full.csv) under this root (query with cmd/results)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *campaign == "" {
		return fmt.Errorf("-campaign is required (configs/sweep-16nm.json is the TDP x test-interval sweep)")
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required (the journals are the resume state)")
	}
	spec, err := dse.LoadSpec(*campaign)
	if err != nil {
		return err
	}
	chaos, err := expt.ParseChaos(*chaosFlag)
	if err != nil {
		return err
	}
	eng := &dse.Engine{
		Spec:         spec,
		Dir:          *dir,
		Resume:       *resume,
		Workers:      *workers,
		CellTimeout:  *cellTimeout,
		Retries:      *retries,
		RetryBackoff: *retryBackoff,
		Chaos:        chaos,
		Stderr:       os.Stderr,
		StatusPath:   *statusFile,
		StoreDir:     *storeDir,
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
	fmt.Printf("\n%s: %d-cell Pareto frontier over %d cells (%d survivors), %d simulations, %s\n",
		spec.Name, len(res.Frontier), res.Total, res.Survivors, res.Simulations, res.Quarantine.Summary())
	if *csvPath != "" {
		if err := checkpoint.WriteFileAtomic(*csvPath, []byte(res.CSV()), 0o644); err != nil {
			return err
		}
	}
	if *quarantineReport != "" {
		blob, err := res.Quarantine.JSON()
		if err != nil {
			return err
		}
		if err := checkpoint.WriteFileAtomic(*quarantineReport, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
