// Command potsimd is the simulation daemon: an HTTP/JSON service that
// accepts simulation and experiment-suite jobs, runs them with bounded
// admission and per-job watchdogs, answers an equal submission with a
// finished job's result, and survives being killed at any point —
// durable job state lives under -data-dir (one directory per job,
// whose result.json is the result's only copy on disk) and a restart
// resumes every unfinished job to a byte-identical result.
//
// Usage:
//
//	potsimd -data-dir /var/lib/potsimd
//	potsimd -addr 127.0.0.1:8080 -queue 32 -workers 4 -max-per-tenant 8
//
// Submit a simulation:
//
//	curl -XPOST localhost:8080/v1/jobs -d '{"kind":"sim","config":{"Horizon":500000000}}'
//
// SIGINT/SIGTERM drain the daemon: admission stops (503 on /readyz and
// new submissions), running jobs checkpoint and stop, and the process
// exits once everything settled (or -drain-timeout elapsed).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"potsim/internal/checkpoint"
	"potsim/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "potsimd:", err)
		os.Exit(1)
	}
}

// options carries the parsed command line; split from serving so tests
// can exercise flag handling without opening sockets.
type options struct {
	addr         string
	addrFile     string
	dataDir      string
	queue        int
	workers      int
	cellWorkers  int
	maxPerTenant int
	ckptEvery    int64
	cellTimeout  time.Duration
	retries      int
	drainTimeout time.Duration
}

func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("potsimd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the bound address to this file (atomic; for scripts using -addr :0)")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable state directory (required)")
	fs.IntVar(&o.queue, "queue", 16, "admission queue depth; a full queue answers 429")
	fs.IntVar(&o.workers, "workers", 2, "jobs executed concurrently")
	fs.IntVar(&o.cellWorkers, "cell-workers", 0, "cell parallelism inside a suite job (0 = GOMAXPROCS)")
	fs.IntVar(&o.maxPerTenant, "max-per-tenant", 4, "per-tenant in-flight job cap (-1 = unlimited)")
	fs.Int64Var(&o.ckptEvery, "checkpoint-every", 200, "snapshot cadence in epochs (-1 disables periodic snapshots)")
	fs.DurationVar(&o.cellTimeout, "cell-timeout", 0, "per-attempt watchdog for jobs and suite cells (0 = none)")
	fs.IntVar(&o.retries, "retries", 0, "retry budget for failed attempts")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long shutdown waits for jobs to checkpoint")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.dataDir == "" {
		return o, errors.New("-data-dir is required: the daemon's crash tolerance lives there")
	}
	if o.queue < 1 {
		return o, errors.New("-queue must be >= 1")
	}
	if o.workers < 1 {
		return o, errors.New("-workers must be >= 1")
	}
	if o.drainTimeout <= 0 {
		return o, errors.New("-drain-timeout must be positive")
	}
	return o, nil
}

func run(args []string) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}

	srv, err := service.New(service.Config{
		DataDir:         o.dataDir,
		QueueDepth:      o.queue,
		JobWorkers:      o.workers,
		CellWorkers:     o.cellWorkers,
		MaxPerTenant:    o.maxPerTenant,
		CheckpointEvery: o.ckptEvery,
		CellTimeout:     o.cellTimeout,
		Retries:         o.retries,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "potsimd: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if o.addrFile != "" {
		// Atomic so watchers never read a half-written address.
		if err := checkpoint.WriteFileAtomic(o.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "potsimd: serving on %s (data dir %s)\n", ln.Addr(), o.dataDir)

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stopSignals() // a second signal kills the process the default way

	// Graceful shutdown: stop admitting, checkpoint running jobs, then
	// close the listener. Durable state is consistent at every point, so
	// even a drain that times out loses no settled work.
	fmt.Fprintln(os.Stderr, "potsimd: draining (jobs are checkpointing; repeat the signal to kill)")
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	if serr := httpSrv.Shutdown(drainCtx); serr != nil && drainErr == nil {
		drainErr = serr
	}
	if drainErr != nil {
		return fmt.Errorf("drain incomplete after %v: %w (state on disk is consistent; restart resumes)", o.drainTimeout, drainErr)
	}
	fmt.Fprintln(os.Stderr, "potsimd: drained; unfinished jobs resume on next start")
	return nil
}
