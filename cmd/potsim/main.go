// Command potsim runs one manycore simulation and prints a report.
//
// Usage:
//
//	potsim [flags]
//
// Examples:
//
//	potsim -mesh 8x8 -policy pots -mapper TUM -horizon 500ms
//	potsim -policy naive -tdp-frac 0.25 -seed 7 -trace
//	potsim -node 22nm -faults -horizon 1s
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"potsim/internal/checkpoint"
	"potsim/internal/core"
	"potsim/internal/expt"
	"potsim/internal/prof"
	"potsim/internal/sim"
	"potsim/internal/tech"
	"potsim/internal/viz"
	"potsim/internal/workload"
)

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "potsim:", err)
	if errors.Is(err, core.ErrInterrupted) {
		// Graceful SIGINT/SIGTERM shutdown: the run stopped at an epoch
		// boundary (and, with -checkpoint-dir, flushed a final snapshot).
		os.Exit(130)
	}
	os.Exit(1)
}

func run(args []string) error {
	fs := flag.NewFlagSet("potsim", flag.ContinueOnError)
	var (
		mesh     = fs.String("mesh", "8x8", "mesh geometry WxH")
		node     = fs.String("node", "16nm", "technology node (45nm/32nm/22nm/16nm)")
		policy   = fs.String("policy", "pots", "test policy: pots|notest|naive|periodic")
		mapper   = fs.String("mapper", "TUM", "mapping policy: FF|NN|CoNA|TUM")
		horizon  = fs.Duration("horizon", 500*time.Millisecond, "simulated horizon")
		iat      = fs.Duration("interarrival", 2*time.Millisecond, "mean application interarrival")
		tdpFrac  = fs.Float64("tdp-frac", 0.35, "TDP as a fraction of theoretical chip peak power")
		tdpWatts = fs.Float64("tdp-watts", 0, "explicit TDP in watts (overrides -tdp-frac)")
		levels   = fs.Int("levels", 8, "DVFS operating points")
		seed     = fs.Uint64("seed", 1, "root random seed")
		faults   = fs.Bool("faults", false, "enable stochastic fault injection")
		nocMode  = fs.String("noc", "txn", "interconnect mode: txn (analytic) or flit (co-simulated)")
		decomm   = fs.Bool("decommission", false, "retire cores whose faults are detected")
		cfgPath  = fs.String("config", "", "JSON config file (flags given on the command line override its values)")
		wlTrace  = fs.String("workload", "", "replay a recorded workload trace (JSONL)")
		recTrace = fs.String("record", "", "record this run's arrivals as a JSONL trace")
		bursty   = fs.Bool("bursty", false, "modulate arrivals with on/off burst phases")
		topology = fs.String("topology", "mesh", "interconnect topology: mesh or torus")
		events   = fs.String("events", "", "write the run's event log as JSONL to this file")
		trace    = fs.Bool("trace", false, "print the power trace")
		guardPol = fs.String("guard", "", "runtime invariant policy: panic, error or log (default error)")
		jsonOut  = fs.Bool("json", false, "emit the full report as JSON instead of text")
		hist     = fs.Bool("levels-hist", false, "print the per-level test histogram")
		heat     = fs.Bool("heatmaps", false, "print per-core stress/test/utilization heatmaps")
		ckptDir  = fs.String("checkpoint-dir", "", "directory for the run's durable snapshot (interrupts become resumable)")
		ckptEvry = fs.Int64("checkpoint-every", 0, "epochs between periodic snapshots (0 = snapshot only on interrupt; needs -checkpoint-dir)")
		resume   = fs.Bool("resume", false, "continue from the snapshot in -checkpoint-dir")
		// -trace already means the power trace here, so the runtime
		// execution trace is -exectrace (cmd/experiments uses -trace).
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
		execTr  = fs.String("exectrace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProf, *memProf, *execTr)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "potsim:", perr)
		}
	}()

	cfg := core.DefaultConfig()
	if *cfgPath != "" {
		blob, err := os.ReadFile(*cfgPath)
		if err != nil {
			return err
		}
		// Strict decoding: a misspelled key silently falling back to its
		// default would invalidate a whole study, so name it instead.
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return fmt.Errorf("parsing %s: %w", *cfgPath, err)
		}
	}
	var w, h int
	if _, err := fmt.Sscanf(strings.ToLower(*mesh), "%dx%d", &w, &h); err != nil {
		return fmt.Errorf("bad -mesh %q: %v", *mesh, err)
	}
	n, err := tech.ByName(*node)
	if err != nil {
		return err
	}
	apply := map[string]func(){
		"mesh":         func() { cfg.Width, cfg.Height = w, h },
		"node":         func() { cfg.Node = n },
		"policy":       func() { cfg.TestPolicy = core.TestPolicyKind(strings.ToLower(*policy)) },
		"mapper":       func() { cfg.MapperName = *mapper },
		"horizon":      func() { cfg.Horizon = sim.FromDuration(*horizon) },
		"interarrival": func() { cfg.MeanInterarrival = sim.FromDuration(*iat) },
		"tdp-frac":     func() { cfg.TDPFraction = *tdpFrac },
		"tdp-watts":    func() { cfg.TDPWatts = *tdpWatts },
		"levels":       func() { cfg.DVFSLevels = *levels },
		"seed":         func() { cfg.Seed = *seed },
		"faults":       func() { cfg.EnableFaults = *faults },
		"noc":          func() { cfg.NoCMode = *nocMode },
		"decommission": func() { cfg.DecommissionOnDetect = *decomm },
		"workload":     func() { cfg.TracePath = *wlTrace },
		"record":       func() { cfg.RecordTracePath = *recTrace },
		"topology":     func() { cfg.NoCTopology = *topology },
	}
	// Without -config every flag's value applies, defaults included; a
	// config file is overridden only by the flags given on the command
	// line.
	visit := fs.VisitAll
	if *cfgPath != "" {
		visit = fs.Visit
	}
	visit(func(f *flag.Flag) {
		if set := apply[f.Name]; set != nil {
			set()
		}
	})
	if *guardPol != "" {
		cfg.GuardPolicy = *guardPol
	}
	if *events != "" && cfg.EventLogCapacity == 0 {
		cfg.EventLogCapacity = 1 << 20
	}
	if *bursty {
		cfg.Burst = workload.DefaultBurstiness()
	}

	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume needs -checkpoint-dir")
	}
	var opts expt.CellOptions
	if *ckptDir != "" {
		if cfg.NoCMode == "flit" {
			return fmt.Errorf("-checkpoint-dir needs the txn interconnect: a flit-mode run cannot be snapshotted (in-flight network state is not serializable)")
		}
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		// Cadence 0 still flushes a final snapshot on interrupt, which is
		// all a resumable Ctrl-C needs.
		opts = expt.CellOptions{
			CheckpointPath:  filepath.Join(*ckptDir, "potsim.ckpt"),
			CheckpointEvery: *ckptEvry,
			Resume:          *resume,
		}
		if *resume {
			if _, err := os.Stat(opts.CheckpointPath); os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "potsim: no snapshot at %s; starting fresh\n", opts.CheckpointPath)
			}
		}
	}

	// SIGINT/SIGTERM request a graceful stop: the run ends at its next
	// epoch boundary, flushing the final snapshot when one is configured.
	ctx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	var sys *core.System
	opts.Attach = func(s *core.System) {
		sys = s
		go func() {
			<-ctx.Done()
			s.RequestStop()
		}()
	}

	// The signal context stays out of ExecuteCell: cancellation would fail
	// the run without a snapshot, where a signal asks for a graceful stop.
	start := time.Now()
	rep, err := expt.ExecuteCell(context.Background(), cfg, opts)
	if err != nil {
		if errors.Is(err, core.ErrInterrupted) && opts.CheckpointPath != "" {
			fmt.Fprintf(os.Stderr,
				"potsim: interrupted; state saved to %s — continue with -checkpoint-dir %s -resume\n",
				opts.CheckpointPath, *ckptDir)
		}
		return err
	}
	if *events != "" {
		var buf bytes.Buffer
		if err := sys.Events().WriteJSONL(&buf); err != nil {
			return err
		}
		// Atomic: a crash mid-write can never leave a torn event log.
		if err := checkpoint.WriteFileAtomic(*events, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	if *jsonOut {
		blob, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
		return nil
	}
	fmt.Print(rep.Summary())
	fmt.Printf("  wallclock: %v\n", time.Since(start).Round(time.Millisecond))
	if *hist {
		fmt.Println("\nCompleted tests per DVFS level:")
		fmt.Print(rep.LevelHistogram())
	}
	if *trace {
		fmt.Println("\nt(ms)  workload(W)  test(W)  TDP(W)")
		for _, p := range rep.Trace {
			fmt.Printf("%8.2f  %8.3f  %8.3f  %8.3f\n",
				p.At.Millis(), p.Workload, p.Test, p.Budget)
		}
	}
	if *heat {
		fmt.Println()
		for _, hm := range []struct {
			title string
			vals  []float64
		}{
			{"aging stress per core:", rep.PerCoreStress},
			{"utilization (EWMA) per core:", rep.PerCoreUtil},
			{"idle fraction per core:", rep.PerCoreIdleFrac},
		} {
			out, err := viz.Heatmap(hm.title, cfg.Width, cfg.Height, hm.vals)
			if err != nil {
				return err
			}
			fmt.Println(out)
		}
		if len(rep.PerCoreTests) > 0 {
			out, err := viz.HeatmapInts("completed tests per core:", cfg.Width, cfg.Height, rep.PerCoreTests)
			if err != nil {
				return err
			}
			fmt.Println(out)
		}
	}
	return nil
}
