// Command experiments regenerates the paper-reproduction experiments
// (E1..E19, see DESIGN.md and EXPERIMENTS.md).
//
// Usage:
//
//	experiments -all            # run everything (takes a few minutes)
//	experiments -e E1 -e E9     # run a subset
//	experiments -quick -all     # fast smoke versions
//	experiments -all -csv dir/  # also write each table to dir/e<N>.csv (cmd/results queries them)
//	experiments -all -workers 8 # bound intra-experiment parallelism
//
// Two levels of parallelism compose: -parallel runs whole experiments
// concurrently, -workers fans each experiment's independent simulation
// cells (config x policy x seed) across a worker pool. Tables are
// reproducible: the same seed yields the same numbers whatever the
// worker count, and results always print in request order.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"potsim/internal/checkpoint"
	"potsim/internal/expt"
	"potsim/internal/guard"
	"potsim/internal/prof"
)

type idList []string

func (l *idList) String() string { return strings.Join(*l, ",") }

func (l *idList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "experiments:", err)
	if errors.Is(err, context.Canceled) {
		// Interrupted by SIGINT/SIGTERM: partial tables and the journal
		// were flushed; re-run with -resume to pick up where this left off.
		os.Exit(130)
	}
	os.Exit(1)
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var ids idList
	fs.Var(&ids, "e", "experiment id (repeatable), e.g. -e E1 -e E4")
	all := fs.Bool("all", false, "run every experiment")
	parallel := fs.Int("parallel", 1, "experiments to run concurrently (results still print in order)")
	workers := fs.Int("workers", 0, "simulation cells per experiment to run concurrently (0 = GOMAXPROCS, 1 = sequential)")
	quick := fs.Bool("quick", false, "short horizons and single seed")
	seed := fs.Uint64("seed", 0, "base seed offset for replication")
	csvDir := fs.String("csv", "", "directory to write per-experiment CSV tables (result stores) into")
	progress := fs.Bool("progress", false, "log per-cell completion to stderr")
	guardPolicy := fs.String("guard", "", "runtime invariant policy: panic, error or log (default error)")
	chaosSpec := fs.String("chaos", "", "inject failures: mode[:labelsubstring] with mode panic|hang|nan|error|flaky (diagnostics)")
	cellTimeout := fs.Duration("cell-timeout", 0, "wall-clock deadline per simulation cell (0 = none)")
	retries := fs.Int("retries", 0, "extra attempts for transiently failing cells")
	retryBackoff := fs.Duration("retry-backoff", 0, "pause before the first retry (doubles per retry)")
	ckptDir := fs.String("checkpoint-dir", "", "directory for durable suite state: per-experiment journals of completed cells and mid-cell snapshots")
	ckptEvery := fs.Int64("checkpoint-every", 0, "epochs between mid-cell snapshots (0 = journal whole cells only; needs -checkpoint-dir)")
	resume := fs.Bool("resume", false, "skip cells journaled as complete in -checkpoint-dir and continue interrupted cells from their snapshots")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	execTrace := fs.String("trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", perr)
		}
	}()
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume needs -checkpoint-dir")
	}
	if _, err := guard.ParsePolicy(*guardPolicy); err != nil {
		return err
	}
	chaos, err := expt.ParseChaos(*chaosSpec)
	if err != nil {
		return err
	}
	if *all {
		ids = expt.IDs()
	}
	if len(ids) == 0 {
		return fmt.Errorf("nothing to run: pass -all or -e <id> (have %v)", expt.IDs())
	}
	if *parallel < 1 {
		*parallel = 1
	}
	if *workers < 0 {
		*workers = 0
	}
	if *csvDir != "" {
		// A kill mid-write leaves a temp file beside the tables; the
		// tables themselves are whole, so the droppings just go.
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		if _, err := checkpoint.CleanTemps(*csvDir); err != nil {
			return err
		}
	}

	// SIGINT/SIGTERM cancel the batch context: in-flight cells stop at
	// their next epoch boundary, workers drain, journals and partial
	// tables flush, and the process exits with code 130.
	ctx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// cells tracks each experiment's batch size as reported by the
	// runner's progress callback (experiments run concurrently).
	var mu sync.Mutex
	cells := map[string]int{}
	runner := &expt.Runner{
		Quick: *quick, BaseSeed: *seed, Workers: *workers, Ctx: ctx,
		GuardPolicy: *guardPolicy, Chaos: chaos,
		CellTimeout: *cellTimeout, Retries: *retries, RetryBackoff: *retryBackoff,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, Resume: *resume,
	}
	runner.Progress = func(id string, done, total int) {
		mu.Lock()
		cells[id] = total
		mu.Unlock()
		if *progress {
			fmt.Fprintf(os.Stderr, "[%s cell %d/%d]\n", id, done, total)
		}
	}

	type outcome struct {
		res     *expt.Result
		err     error
		elapsed time.Duration
	}
	outcomes := make([]outcome, len(ids))
	ready := make([]chan struct{}, len(ids))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	sem := make(chan struct{}, *parallel)
	for i, id := range ids {
		go func(i int, id string) {
			defer close(ready[i])
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			res, err := runner.Run(id)
			outcomes[i] = outcome{res: res, err: err, elapsed: time.Since(start)}
		}(i, id)
	}

	// Stream results in request order as they become ready. A failed
	// experiment degrades instead of disappearing: its partial table
	// (failed aggregation groups marked n/a) still prints and its CSV is
	// still flushed, every failed cell is named on stderr, and the exit
	// code stays non-zero.
	var errs []error
	var failed []string
	for i, id := range ids {
		<-ready[i]
		o := outcomes[i]
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", id, o.err)
			errs = append(errs, fmt.Errorf("%s: %w", id, o.err))
			failed = append(failed, id)
			if o.res == nil {
				continue
			}
		}
		fmt.Println(o.res.Render())
		mu.Lock()
		n := cells[o.res.ID]
		mu.Unlock()
		fmt.Printf("[%s finished in %v, %d cells]\n\n",
			o.res.ID, o.elapsed.Round(time.Millisecond), n)
		if *csvDir != "" && o.res.Table != nil {
			if err := writeCSV(*csvDir, o.res); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d of %d experiments degraded or failed: %s\n",
			len(failed), len(ids), strings.Join(failed, ", "))
	}
	if ctx.Err() != nil {
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr,
				"experiments: interrupted; completed cells are journaled in %s — re-run with -resume to continue\n", *ckptDir)
		}
		errs = append(errs, fmt.Errorf("interrupted: %w", ctx.Err()))
	}
	return errors.Join(errs...)
}

// writeCSV flushes one experiment's table atomically (temp file +
// rename), so a reader — or a crash mid-write — can never observe a
// half-written results file. The file is the experiment's result
// store: cmd/results queries it as written.
func writeCSV(dir string, res *expt.Result) error {
	path := filepath.Join(dir, strings.ToLower(res.ID)+".csv")
	return checkpoint.WriteFileAtomic(path, []byte(res.Table.CSV()), 0o644)
}
