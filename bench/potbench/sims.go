package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"potsim/internal/core"
	"potsim/internal/sim"
)

// simWorkload is one steady simulation: the same configuration run
// back to back, each unit with its own seed, timing every epoch.
type simWorkload struct {
	config func() core.Config
	unit   sim.Time // simulated horizon of one timed unit
	check  sim.Time // horizon of the fixed seed-1 golden check
	every  int64    // ledger snapshot cadence in epochs (traced runs)
}

// mesh32Config is the 1024-core mesh with arrivals and memory
// bandwidth scaled with core count the way E19 scales them, so every
// core sees the 8x8 run's pressure.
func mesh32Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Width, cfg.Height = 32, 32
	cores := int64(cfg.Cores())
	cfg.MeanInterarrival = sim.Time(int64(2*sim.Millisecond) * 64 / cores)
	cfg.MemCapacityHz *= float64(cores) / 64
	return cfg
}

// opEpochs is the sim workloads' operation: 100 epochs, 10 ms of
// simulated time. Single epochs cost either a few µs or, with a test in
// flight, several times that, so the median epoch sits on whichever
// mode holds half the epochs; a median over 100-epoch stretches is the
// typical cost of simulating, which a change to any layer moves.
const opEpochs = 100

// unitSeed gives unit i of a run its own, run-seed-dependent workload;
// unit 0 of seed 1 is the paper's default seed.
func unitSeed(seed uint64, i int) uint64 { return seed + uint64(i)*1_000_003 }

func (w simWorkload) run(r *run) error {
	base := w.config()
	unitH := w.unit
	if r.smoke {
		// At least two operations' worth of epochs, so a unit yields one.
		unitH = max(unitH/50, 2*opEpochs*base.Epoch)
	}
	err := r.timeSetup(10, true, func() (time.Duration, error) {
		t := time.Now()
		sys, err := core.New(base)
		d := time.Since(t)
		if err == nil {
			sys.Close()
		}
		return d, err
	})
	if err != nil {
		return err
	}

	check := base
	check.Horizon = w.check
	rep, _, err := simulate(check, nil, nil, 0)
	if err != nil {
		return fmt.Errorf("golden check run: %w", err)
	}
	if dg, err := reportDigest(rep); err != nil {
		r.problem("golden check report: %v", err)
	} else {
		r.checkGolden(r.name+"/check", dg)
	}

	var epochs []float64
	err = r.loop(func(i int) error {
		cfg := base
		cfg.Seed = unitSeed(r.seed, i)
		cfg.Horizon = unitH
		sp := r.tr.start(0, 0, "core.System.Run")
		from := len(epochs)
		rep, d, err := simulate(cfg, &epochs, r.led, w.every)
		sp.end()
		if err != nil {
			return err
		}
		for k := from; k+opEpochs <= len(epochs); k += opEpochs {
			sum := 0.0
			for _, e := range epochs[k : k+opEpochs] {
				sum += e
			}
			r.addOp(sum / 1e3)
		}
		r.simMS += unitH.Millis()
		r.addHost(d)
		dg, err := reportDigest(rep)
		if err != nil {
			r.problem("unit %d: %v", i, err)
			return nil
		}
		if i == 0 {
			r.digest = dg
			if r.seed == 1 && !r.smoke {
				r.checkGolden(r.name+"/seed1", dg)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if r.led != nil {
		r.led.epochs = epochs
	}
	asc := sorted(epochs)
	r.note("epoch_us_p50", quantile(asc, 0.5), "us")
	if q, ok := tailQuantile(len(asc), 0.99, 0.9); ok {
		r.note(fmt.Sprintf("epoch_us_p%g", 100*q), quantile(asc, q), "us")
	}
	r.note("epochs", float64(len(asc)), "count")
	return nil
}

// simulate runs one configuration to completion. Each epoch's host time
// in µs is appended to epochs (when non-nil); with a ledger it also
// replays a snapshot every `every` epochs.
func simulate(cfg core.Config, epochs *[]float64, led *ledger, every int64) (*core.Report, time.Duration, error) {
	start := time.Now()
	sys, err := core.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	var last time.Time
	if epochs != nil {
		first := true
		sys.OnEpoch(func(int64, sim.Time) {
			now := time.Now()
			if !first {
				*epochs = append(*epochs, us(now.Sub(last)))
			}
			first = false
			last = now
		})
	}
	if led != nil {
		if err := led.attach(sys, cfg, every, &last); err != nil {
			return nil, 0, err
		}
	}
	rep, err := sys.Run()
	return rep, time.Since(start), err
}

// reportDigest checks a finished report and returns the sha256 of its
// JSON form, the sim's output identity.
func reportDigest(rep *core.Report) (string, error) {
	if err := rep.Sanity(); err != nil {
		return "", err
	}
	if rep.GuardViolations != 0 {
		return "", fmt.Errorf("%d guard violations", rep.GuardViolations)
	}
	if rep.AppsMapped == 0 {
		return "", fmt.Errorf("no application was mapped")
	}
	blob, err := rep.JSON()
	if err != nil {
		return "", err
	}
	return digestOf(blob), nil
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
