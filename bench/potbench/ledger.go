package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"potsim/internal/aging"
	"potsim/internal/checkpoint"
	"potsim/internal/core"
	"potsim/internal/dvfs"
	"potsim/internal/mapping"
	"potsim/internal/noc"
	"potsim/internal/power"
	"potsim/internal/sbst"
	"potsim/internal/scheduler"
	"potsim/internal/thermal"
	"potsim/internal/workload"
)

// Core occupancy states in the order core.Snapshot serializes them.
const (
	snapFree = iota
	snapReserved
	snapRunning
	snapTesting
	snapDead
)

// testGuardBand mirrors the share of the TDP that core's test admission
// keeps free; it only shapes the slack handed to the replayed Plan.
const testGuardBand = 0.05

// replayLayers are the per-epoch layer timings the ledger attributes,
// in the order the epoch runs them. Their per-snapshot sum over the
// measured epoch time is core.layer_coverage.
var replayLayers = []string{
	"sbst.advance_us", "power.eval_us", "thermal.advance_us", "aging.advance_us",
	"dvfs.update_us", "aging.stress_us", "scheduler.criticality_us",
	"mapping.map_us", "scheduler.plan_us", "noc.latency_us",
}

// ledger attributes epoch time to layers without touching program
// code: a sim run hands it a snapshot every few epochs, it restores
// standalone copies of each layer through their public Restore APIs and
// times one epoch of the public calls the core makes on them. Every
// roundTrip-th snapshot also goes through checkpoint.Save/Load and
// core.New+Restore, which times the durability write and read paths.
type ledger struct {
	dir       string
	roundTrip int

	samples map[string][]float64
	epochs  []float64     // host µs of the epochs of ledgered runs
	spent   time.Duration // time the ledger's sinks held the simulation
	seen    int
}

func newLedger(dir string) *ledger {
	return &ledger{dir: dir, roundTrip: 10, samples: make(map[string][]float64)}
}

func (l *ledger) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// probe runs one configuration under the ledger, snapshotting every
// `every` epochs. Workloads whose own simulations run inside a front
// end (the campaign engine, the daemon, the experiment runner) use it
// after their timed window on configurations those simulations use.
func (l *ledger) probe(cfg core.Config, every int64) error {
	var epochs []float64
	rep, _, err := simulate(cfg, &epochs, l, every)
	if err != nil {
		return fmt.Errorf("ledger probe: %w", err)
	}
	if _, err := reportDigest(rep); err != nil {
		return fmt.Errorf("ledger probe: %w", err)
	}
	l.epochs = append(l.epochs, epochs...)
	return nil
}

// attach installs the ledger's snapshot sink on sys. lastEpoch points at
// the time the run's OnEpoch hook last fired; the sink resets it on exit
// so the next epoch's delta excludes the ledger's own work.
func (l *ledger) attach(sys *core.System, cfg core.Config, every int64, lastEpoch *time.Time) error {
	k, err := newKit(cfg)
	if err != nil {
		return err
	}
	sys.CheckpointEvery(every, func(snap *core.Snapshot) error {
		enter := time.Now()
		l.add("core.snapshot_ms", ms(enter.Sub(*lastEpoch)))
		err := l.sample(k, snap)
		*lastEpoch = time.Now()
		l.spent += lastEpoch.Sub(enter)
		return err
	})
	return nil
}

// sample replays one snapshot and, every roundTrip-th time, round-trips
// it through the checkpoint file format and a fresh System.
func (l *ledger) sample(k *kit, snap *core.Snapshot) error {
	r, err := k.replay(snap)
	if err != nil {
		return fmt.Errorf("ledger replay: %w", err)
	}
	sum := 0.0
	for _, name := range replayLayers {
		if v, ok := r.times[name]; ok {
			l.add(name, v)
			sum += v
		}
	}
	l.add("layers_us", sum)
	l.add("sbst.tests_in_flight", float64(r.tests))
	l.add("scheduler.launches", float64(r.launches))
	l.add("mapping.pending", float64(r.pending))
	l.seen++
	if (l.seen-1)%l.roundTrip != 0 {
		return nil
	}
	return l.roundTripSnapshot(k.cfg, snap)
}

func (l *ledger) roundTripSnapshot(cfg core.Config, snap *core.Snapshot) error {
	path := filepath.Join(l.dir, "ledger.ckpt")
	t := time.Now()
	if err := checkpoint.Save(path, core.SnapshotKind, core.SnapshotVersion, snap); err != nil {
		return err
	}
	l.add("checkpoint.save_ms", ms(time.Since(t)))
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.add("checkpoint.bytes", float64(fi.Size()))
	var back core.Snapshot
	t = time.Now()
	if err := checkpoint.Load(path, core.SnapshotKind, core.SnapshotVersion, &back); err != nil {
		return err
	}
	l.add("checkpoint.load_ms", ms(time.Since(t)))
	t = time.Now()
	sys, err := core.New(cfg)
	if err != nil {
		return err
	}
	l.add("core.new_ms", ms(time.Since(t)))
	defer sys.Close()
	t = time.Now()
	if err := sys.Restore(&back); err != nil {
		return err
	}
	l.add("core.restore_ms", ms(time.Since(t)))
	return nil
}

// kit holds one configuration's standalone layer copies. Building it is
// untimed; every snapshot is restored into the same objects.
type kit struct {
	cfg    core.Config
	table  *dvfs.Table
	model  power.Model
	acct   *power.Accountant
	therm  *thermal.Grid
	ager   *aging.Tracker
	capper *dvfs.PIDCapper
	gov    *dvfs.Governor
	pots   *scheduler.POTS // nil for NoTest
	grid   *mapping.Grid
	mapper mapping.Policy
	txn    noc.TxnModel

	execs  []*sbst.Exec
	acts   []float64
	powerW []float64
	states []aging.CoreState
	stress []float64
	util   []float64
	view   []scheduler.CoreSnapshot
}

func newKit(cfg core.Config) (*kit, error) {
	n := cfg.Cores()
	k := &kit{
		cfg:    cfg,
		table:  dvfs.NewTable(cfg.Node, cfg.DVFSLevels),
		model:  power.NewModel(cfg.Node),
		grid:   mapping.NewGrid(cfg.Width, cfg.Height),
		execs:  make([]*sbst.Exec, n),
		acts:   make([]float64, n),
		powerW: make([]float64, n),
		states: make([]aging.CoreState, n),
		stress: make([]float64, n),
		util:   make([]float64, n),
		view:   make([]scheduler.CoreSnapshot, n),
	}
	k.gov = dvfs.NewGovernor(k.table)
	topo := noc.TopologyMesh
	if cfg.NoCTopology == "torus" {
		topo = noc.TopologyTorus
	}
	k.txn = noc.NewTxnModel(noc.Config{Width: cfg.Width, Height: cfg.Height, Topology: topo,
		BufferDepth: cfg.NoCBufferDepth, VirtualChannels: max(cfg.NoCVirtualChannels, 1),
		ClockHz: cfg.NoCClockHz})
	var err error
	if k.acct, err = power.NewAccountant(n, cfg.TraceEvery); err != nil {
		return nil, err
	}
	if k.therm, err = thermal.NewGrid(thermal.DefaultConfig(cfg.Width, cfg.Height)); err != nil {
		return nil, err
	}
	if k.ager, err = aging.NewTracker(n, cfg.Aging); err != nil {
		return nil, err
	}
	if k.capper, err = dvfs.NewPIDCapper(dvfs.DefaultPIDConfig(cfg.TDP())); err != nil {
		return nil, err
	}
	if k.mapper, err = mapping.ByName(cfg.MapperName); err != nil {
		return nil, err
	}
	sc := scheduler.Config{
		Cores: n, Model: k.model, Table: k.table, Criticality: cfg.Criticality,
		Routines: sbst.SegmentLibrary(sbst.Library(), cfg.TestSegmentCycles),
		Options:  cfg.SchedOptions,
	}
	switch cfg.TestPolicy {
	case core.PolicyNoTest:
	case core.PolicyNaive:
		k.pots, err = scheduler.NewNaiveIdle(sc)
	case core.PolicyPeriodic:
		k.pots, err = scheduler.NewPeriodic(sc)
	default:
		k.pots, err = scheduler.NewPOTS(sc)
	}
	return k, err
}

// restore loads a snapshot into the kit's layer copies.
func (k *kit) restore(snap *core.Snapshot) error {
	if err := k.therm.Restore(snap.Thermal); err != nil {
		return err
	}
	if err := k.ager.Restore(snap.Aging); err != nil {
		return err
	}
	if err := k.acct.Restore(snap.Acct); err != nil {
		return err
	}
	if err := k.capper.Restore(snap.Capper); err != nil {
		return err
	}
	if err := k.grid.Restore(snap.Grid); err != nil {
		return err
	}
	if k.pots != nil && snap.Sched != nil {
		if err := k.pots.Restore(*snap.Sched); err != nil {
			return err
		}
	}
	for id, cs := range snap.Cores {
		k.execs[id] = nil
		if cs.State == snapTesting && cs.Test != nil {
			ex, err := sbst.RestoreExec(*cs.Test)
			if err != nil {
				return err
			}
			k.execs[id] = ex
		}
	}
	return nil
}

// task returns the application graph and task a core's snapshot entry
// runs, or nils.
func task(snap *core.Snapshot, id int) (*workload.Graph, *workload.Task) {
	cs := snap.Cores[id]
	if cs.App < 0 || cs.App >= len(snap.Apps) || snap.Apps[cs.App].Graph == nil {
		return nil, nil
	}
	g := snap.Apps[cs.App].Graph
	if cs.Task < 0 || cs.Task >= len(g.Tasks) {
		return nil, nil
	}
	return g, &g.Tasks[cs.Task]
}

// replayed is one snapshot's layer timings (µs, keyed by replayLayers
// name; a layer with no work that epoch is absent) and work counts.
type replayed struct {
	times                    map[string]float64
	tests, launches, pending int
}

// replay restores a snapshot and times one epoch of layer calls on it,
// following the order of core's epoch: integrate (tests, power, heat,
// wear), then control (PID and governor, criticality, mapping, test
// planning and program delivery).
func (k *kit) replay(snap *core.Snapshot) (replayed, error) {
	r := replayed{times: make(map[string]float64, len(replayLayers))}
	if err := k.restore(snap); err != nil {
		return r, err
	}
	dt := k.cfg.Epoch
	next := snap.LastEpochAt + dt
	idle := k.table.Point(0)

	t := time.Now()
	for id, ex := range k.execs {
		if ex != nil {
			r.tests++
			ex.Advance(dt)
			k.acts[id] = ex.CurrentActivity()
			_ = ex.Done()
		}
	}
	if r.tests > 0 {
		r.times["sbst.advance_us"] = us(time.Since(t))
	}

	t = time.Now()
	for id, cs := range snap.Cores {
		temp := k.therm.Temperature(id)
		var wl, tst power.Breakdown
		switch cs.State {
		case snapFree, snapReserved:
			wl = k.model.IdlePower(idle.Voltage, temp)
		case snapRunning:
			if _, tk := task(snap, id); tk != nil {
				pt := k.table.Point(cs.Level)
				wl = k.model.Core(pt.Voltage, pt.FreqHz, tk.Activity, temp)
			}
		case snapTesting:
			if ex := k.execs[id]; ex != nil {
				tst = k.model.Core(ex.Point.Voltage, ex.Point.FreqHz, k.acts[id], temp)
			}
		}
		k.acct.SetWorkload(id, wl)
		k.acct.SetTest(id, tst)
		k.powerW[id] = wl.Total() + tst.Total()
	}
	if err := k.acct.Advance(next, k.cfg.TDP()); err != nil {
		return r, err
	}
	r.times["power.eval_us"] = us(time.Since(t))

	t = time.Now()
	if err := k.therm.Advance(next, k.powerW); err != nil {
		return r, err
	}
	r.times["thermal.advance_us"] = us(time.Since(t))

	for id, cs := range snap.Cores {
		st := aging.CoreState{Voltage: idle.Voltage, TempK: k.therm.Temperature(id)}
		switch cs.State {
		case snapDead:
			st = aging.CoreState{}
		case snapRunning:
			st.Utilization, st.Voltage = 1, k.table.Point(cs.Level).Voltage
			if _, tk := task(snap, id); tk != nil {
				st.Activity = tk.Activity
			}
		case snapTesting:
			if ex := k.execs[id]; ex != nil {
				st.Utilization, st.Voltage, st.Activity = 1, ex.Point.Voltage, k.acts[id]
			}
		}
		k.states[id] = st
	}
	t = time.Now()
	if err := k.ager.Advance(next, k.states); err != nil {
		return r, err
	}
	r.times["aging.advance_us"] = us(time.Since(t))

	// The PID capper step, the per-class ceilings and the governor's
	// level choice for every running core.
	t = time.Now()
	throttle := k.capper.Update(k.acct.ChipPower(), dt.Seconds())
	_ = k.capper.CeilingLevel(k.table)
	var classCeil [3]int
	for class := range classCeil {
		u := throttle
		if k.cfg.ClassAwareDVFS && workload.Class(class) == workload.HardRT {
			u = math.Min(1, throttle+0.4)
		} else if k.cfg.ClassAwareDVFS && workload.Class(class) == workload.SoftRT {
			u = math.Min(1, throttle+0.2)
		}
		classCeil[class] = min(max(int(math.Round(u*float64(k.table.Highest()))), 0), k.table.Highest())
	}
	for id, cs := range snap.Cores {
		if cs.State != snapRunning {
			continue
		}
		if g, tk := task(snap, id); tk != nil && int(g.Class) < len(classCeil) {
			lvl := k.gov.LevelFor(tk.DemandHz, classCeil[g.Class])
			_ = k.gov.Slowdown(tk.DemandHz, lvl)
		}
	}
	r.times["dvfs.update_us"] = us(time.Since(t))

	t = time.Now()
	for id := range snap.Cores {
		k.stress[id] = k.ager.Stress(id)
		k.util[id] = k.ager.Utilization(id)
	}
	r.times["aging.stress_us"] = us(time.Since(t))

	if k.pots != nil {
		t = time.Now()
		for id := range snap.Cores {
			k.grid.Cores[id].Criticality = k.pots.Criticality(id, next, k.stress[id], k.util[id])
		}
		r.times["scheduler.criticality_us"] = us(time.Since(t))
	}

	// Retry the head of the pending queue on the restored grid, which is
	// what every epoch does while an application waits.
	for _, app := range snap.Apps {
		if !app.Pending || app.Graph == nil {
			continue
		}
		if r.pending == 0 {
			t = time.Now()
			_, _ = k.mapper.Map(app.Graph, k.grid)
			r.times["mapping.map_us"] = us(time.Since(t))
		}
		r.pending++
	}

	if k.pots == nil {
		return r, nil
	}
	for id, cs := range snap.Cores {
		k.view[id] = scheduler.CoreSnapshot{
			ID: id, Idle: cs.State == snapFree, Testing: cs.State == snapTesting,
			Stress: k.stress[id], Util: k.util[id], TempK: k.therm.Temperature(id),
		}
	}
	slack := math.Max(0, k.cfg.TDP()*(1-testGuardBand)-k.acct.ChipPower())
	t = time.Now()
	decisions := k.pots.Plan(next, k.view, slack)
	r.times["scheduler.plan_us"] = us(time.Since(t))
	r.launches = len(decisions)

	// The occupancy-based NoC load estimate and one test-program
	// delivery per launch from the corner memory controller.
	t = time.Now()
	busy := 0
	for _, cs := range snap.Cores {
		if cs.State == snapRunning || cs.State == snapTesting {
			busy++
		}
	}
	load := 0.5 * float64(busy) / float64(len(snap.Cores))
	for _, d := range decisions {
		_ = k.txn.Latency(noc.Coord{}, k.grid.Coord(d.Core), 64, load)
	}
	r.times["noc.latency_us"] = us(time.Since(t))
	return r, nil
}
