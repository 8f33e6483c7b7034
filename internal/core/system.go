package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync/atomic"

	"potsim/internal/aging"
	"potsim/internal/dvfs"
	"potsim/internal/eventlog"
	"potsim/internal/faults"
	"potsim/internal/guard"
	"potsim/internal/mapping"
	"potsim/internal/mem"
	"potsim/internal/noc"
	"potsim/internal/power"
	"potsim/internal/sbst"
	"potsim/internal/scheduler"
	"potsim/internal/sim"
	"potsim/internal/thermal"
	"potsim/internal/workload"
)

// coreState is a core's occupancy at an instant.
type coreState int

const (
	coreFree coreState = iota
	coreReserved
	coreRunning
	coreTesting
	// coreDead is a decommissioned core: a permanent fault was detected
	// and the core is power-gated out of the resource pool.
	coreDead
)

// testGuardBand reserves a slice of the TDP that test admission may not
// touch, absorbing workload power steps between control epochs.
const testGuardBand = 0.05

// classOrder fixes the per-class DVFS shaping order (most to least
// critical).
var classOrder = [...]workload.Class{workload.HardRT, workload.SoftRT, workload.BestEffort}

// taskRun is one task instance of a mapped application. Execution follows
// the streaming model: the task's total work is WorkCycles * Iterations;
// successors unblock once the first iteration's output has been produced
// and shipped over the NoC, after which the whole pipeline runs
// concurrently.
type taskRun struct {
	app       *appRun
	task      *workload.Task
	core      int
	remaining int64 // total effective cycles left (all iterations)
	executed  int64 // effective cycles completed so far
	// effIter is the effective cycle cost of one iteration: the task's
	// work plus the inbound per-frame communication stall, fixed when the
	// task starts (it depends on where the mapper placed the producers).
	effIter  int64
	readyAt  sim.Time
	depsLeft int
	// msgsInFlight counts flit-mode synchronisation packets still in the
	// network that must arrive before the task may start.
	msgsInFlight int
	iterFired    bool // first-iteration output delivered to successors
	started      bool
	done         bool
}

// appRun is one mapped application instance.
type appRun struct {
	seq       int
	graph     *workload.Graph
	arrivedAt sim.Time
	mappedAt  sim.Time
	assign    mapping.Assignment
	tasks     []taskRun
	doneTasks int
}

// msgTarget routes a flit-mode delivery back to its consumer: either a
// successor task waiting for its first frame, or a test execution waiting
// for its program.
type msgTarget struct {
	app  *appRun
	succ int // task id; -1 for a test-program delivery
	core int
	test *sbst.Exec
}

// coreRuntime is per-core mutable state.
type coreRuntime struct {
	state coreState
	task  *taskRun
	test  *sbst.Exec
	// suspended holds a preempted test execution under the ResumePhase
	// abort policy; the scheduler's next decision for this core resumes
	// it instead of starting a fresh routine.
	suspended *sbst.Exec
	// testStallUntil models delivery of the test program over the NoC:
	// the routine makes no progress until then.
	testStallUntil sim.Time
	level          int
}

// arrivalSource is the stream of incoming applications: the stochastic
// generator, a trace replay, or a recording wrapper around either.
type arrivalSource interface {
	PeekNext() sim.Time
	Next() (workload.Arrival, error)
}

// System is the assembled manycore simulation.
type System struct {
	cfg Config

	rng     *sim.RNG //potlint:nosnap stream factory; live streams snapshot themselves
	source  arrivalSource
	gen     *workload.Source  // non-nil when arrivals are generated
	capture *workload.Capture // non-nil when recording
	mapper  mapping.Policy    //potlint:nosnap stateless policy, rebuilt from Config
	grid    *mapping.Grid
	levels  *power.LevelModel //potlint:nosnap per-level power factors, rebuilt from Config
	acct    *power.Accountant
	budget  *power.Budget
	capper  *dvfs.PIDCapper
	gov     *dvfs.Governor //potlint:nosnap stateless governor, rebuilt from Config
	table   *dvfs.Table    //potlint:nosnap operating-point table, rebuilt from Config
	therm   *thermal.Grid
	ager    *aging.Tracker
	board   *faults.Board
	txn     noc.TxnModel     //potlint:nosnap pure latency math, rebuilt from Config
	memory  *mem.Subsystem   // nil when the memory model is disabled
	policy  scheduler.Policy //potlint:nosnap stateless policy, rebuilt from Config
	pots    *scheduler.POTS  // nil for NoTest
	faultRn *sim.Stream

	phaseMemo sbst.PhaseMemo //potlint:nosnap the launched tests' fault-free phase compactions, pure functions of their keys, refilled on a miss

	events *eventlog.Log

	// guard evaluates the runtime invariant registry every epoch;
	// guardPowerCapW is the chip-power runaway ceiling (well above any
	// physically reachable draw, so only numeric blowups trip it).
	guard          *guard.Checker
	guardPowerCapW float64 //potlint:nosnap derived from Config at assembly

	// flit-mode co-simulation state (nil in txn mode). Snapshot rejects
	// flit-mode runs outright, so none of it is checkpointed.
	flitNet     *noc.Network
	delivCursor int               //potlint:nosnap flit-mode only; Snapshot refuses flit runs
	msgWait     map[int]msgTarget //potlint:nosnap flit-mode only; Snapshot refuses flit runs

	cores   []coreRuntime
	pending []*appRun // arrived, waiting to be mapped

	// Per-epoch scratch buffers, sized once at assembly so the
	// steady-state control loop allocates nothing: core snapshots handed
	// to the scheduler, and the aging/power vectors handed to the
	// physical models.
	snapScratch  []scheduler.CoreSnapshot //potlint:nosnap per-epoch scratch, rewritten before every use
	stateScratch []aging.CoreState        //potlint:nosnap per-epoch scratch, rewritten before every use
	powerScratch []float64                //potlint:nosnap per-epoch scratch, rewritten before every use

	lastEpochAt sim.Time
	ceiling     int
	// classCeil[class] is the DVFS ceiling applying to that application
	// class when ClassAwareDVFS is on.
	classCeil [3]int

	// counters
	arrived        int
	mapped         int
	completedApps  int
	completedTasks int
	rejectedEpochs int // epochs in which the queue head could not map
	appLatency     []sim.Time
	queueDelay     []sim.Time
	dispersions    []float64
	busyCoreEpochs int64
	totalEpochs    int64
	// per-class accounting: completed tasks and slowdown accumulation.
	classTasks   [3]int
	classSlowSum [3]float64
	classSlowObs [3]int64
	// thermalEmergencies counts core-epochs clamped by the thermal limit.
	thermalEmergencies int64
	// dvfsTransitions counts per-core operating-point switches (each one
	// stalls the core for Config.DVFSTransition).
	dvfsTransitions int64
	idleEpochs      []int64 // per-core epochs spent free or testing
	testDelivery    int     // test program deliveries (NoC transactions)
	decommissioned  []int   // cores taken out of service after detection

	// Crash-safety hooks: stopReq is set from any goroutine (signal
	// handlers) and polled at epoch boundaries; ctx, when set, cancels
	// the run promptly; ckptSink receives periodic and final snapshots;
	// onEpoch observes completed epochs (progress streaming).
	stopReq   atomic.Bool
	ctx       context.Context
	ckptEvery int64 //potlint:nosnap crash-safety wiring, reinstalled by CheckpointEvery
	ckptSink  func(*Snapshot) error
	onEpoch   func(epoch int64, now sim.Time)
}

// ErrInterrupted is returned by Run when RequestStop ended the run early.
// The system state at that point is a consistent epoch boundary and the
// final snapshot (if a checkpoint sink is installed) has been flushed.
var ErrInterrupted = errors.New("core: run interrupted by stop request")

// RequestStop asks a running simulation to stop at the next epoch
// boundary: the epoch completes, a final snapshot is handed to the
// checkpoint sink (when one is installed), and Run returns
// ErrInterrupted. Safe to call from any goroutine, any number of times.
func (s *System) RequestStop() { s.stopReq.Store(true) }

// SetContext attaches a cancellation context, polled at every epoch
// boundary. Unlike RequestStop, cancellation fails the run with the
// context's error and writes no snapshot — it is the "give up promptly"
// path for timeouts and aborted experiment cells. Call before Run.
func (s *System) SetContext(ctx context.Context) { s.ctx = ctx }

// CheckpointEvery installs a snapshot sink invoked every everyEpochs
// epochs (0 = only on RequestStop) once that epoch has fully integrated.
// A sink error fails the run: a checkpoint that cannot be persisted must
// not be discovered at resume time. Call before Run.
func (s *System) CheckpointEvery(everyEpochs int64, sink func(*Snapshot) error) {
	s.ckptEvery = everyEpochs
	s.ckptSink = sink
}

// OnEpoch installs an observer invoked after every fully integrated
// epoch with the total epoch count and the simulated time. It runs on
// the simulation goroutine, so it must be fast and must not call back
// into the system; a service uses it to stream per-epoch progress.
// Call before Run.
func (s *System) OnEpoch(fn func(epoch int64, now sim.Time)) { s.onEpoch = fn }

// GuardExport returns a consistent snapshot of the run's invariant
// violations so far. Safe to call from any goroutine while the
// simulation is running — this is what a live health endpoint reads
// mid-run, before the final Report exists.
func (s *System) GuardExport() guard.Export { return s.guard.Export() }

// New assembles a system from the configuration.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	var src arrivalSource
	var gen *workload.Source
	var capture *workload.Capture
	if cfg.TracePath != "" {
		f, err := os.Open(cfg.TracePath)
		if err != nil {
			return nil, err
		}
		entries, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		src = workload.NewReplay(entries)
	} else {
		g, err := workload.NewBurstySource(cfg.Mix, cfg.MeanInterarrival, cfg.Burst, rng.Stream("arrivals"))
		if err != nil {
			return nil, err
		}
		gen = g
		src = gen
		if cfg.RecordTracePath != "" {
			capture = workload.NewCapture(gen)
			src = capture
		}
	}
	mapper, err := mapping.ByName(cfg.MapperName)
	if err != nil {
		return nil, err
	}
	therm, err := thermal.NewGrid(cfg.thermalConfig())
	if err != nil {
		return nil, err
	}
	ager, err := aging.NewTracker(cfg.Cores(), cfg.Aging)
	if err != nil {
		return nil, err
	}
	table := dvfs.NewTable(cfg.Node, cfg.DVFSLevels)
	capper, err := dvfs.NewPIDCapper(dvfs.DefaultPIDConfig(cfg.TDP()))
	if err != nil {
		return nil, err
	}
	gpolicy, err := guard.ParsePolicy(cfg.GuardPolicy)
	if err != nil {
		return nil, err
	}
	acct, err := power.NewAccountant(cfg.Cores(), cfg.TraceEvery)
	if err != nil {
		return nil, fmt.Errorf("core: assembling accountant: %w", err)
	}
	budget, err := power.NewBudget(cfg.TDP())
	if err != nil {
		return nil, fmt.Errorf("core: assembling budget: %w", err)
	}
	s := &System{
		cfg:        cfg,
		rng:        rng,
		source:     src,
		gen:        gen,
		capture:    capture,
		mapper:     mapper,
		grid:       mapping.NewGrid(cfg.Width, cfg.Height),
		levels:     power.NewLevelModel(cfg.Node, table),
		acct:       acct,
		budget:     budget,
		capper:     capper,
		gov:        dvfs.NewGovernor(table),
		table:      table,
		therm:      therm,
		ager:       ager,
		txn:        noc.NewTxnModel(cfg.nocConfig()),
		events:     eventlog.New(cfg.EventLogCapacity),
		cores:      make([]coreRuntime, cfg.Cores()),
		idleEpochs: make([]int64, cfg.Cores()),

		snapScratch:  make([]scheduler.CoreSnapshot, cfg.Cores()),
		stateScratch: make([]aging.CoreState, cfg.Cores()),
		powerScratch: make([]float64, cfg.Cores()),
	}
	s.guard = guard.New(gpolicy)
	// Chip power can never physically exceed every core at peak draw;
	// the factor 2 absorbs >1 test activities and hot leakage, so the
	// ceiling only trips on genuine numeric runaway.
	s.guardPowerCapW = 2 * float64(cfg.Cores()) * cfg.Node.PeakCorePower()
	if s.guardPowerCapW < 2*s.budget.TDP {
		s.guardPowerCapW = 2 * s.budget.TDP
	}
	if cfg.GovernorRaceToIdle {
		s.gov.SetPolicy(dvfs.GovernorRace)
	}
	s.ceiling = table.Highest()
	for i := range s.classCeil {
		s.classCeil[i] = table.Highest()
	}
	for i := range s.grid.Cores {
		s.grid.Cores[i].Free = true
	}
	if cfg.MemControllers > 0 {
		mcfg := mem.DefaultConfig(cfg.Width, cfg.Height, cfg.MemControllers)
		mcfg.CapacityHz = cfg.MemCapacityHz
		s.memory, err = mem.New(cfg.Width, cfg.Height, mcfg)
		if err != nil {
			return nil, err
		}
	}
	if cfg.NoCMode == "flit" {
		s.flitNet, err = noc.NewNetwork(cfg.nocConfig())
		if err != nil {
			return nil, err
		}
		s.msgWait = make(map[int]msgTarget)
	}
	if cfg.EnableFaults {
		s.board, err = faults.NewBoard(cfg.Cores(), cfg.Faults, rng.Stream("faults"))
		if err != nil {
			return nil, err
		}
		s.faultRn = rng.Stream("fault-misc")
	}
	schedCfg := scheduler.Config{
		Cores:       cfg.Cores(),
		Model:       power.NewModel(cfg.Node),
		Table:       table,
		Criticality: cfg.Criticality,
		Routines:    sbst.SegmentLibrary(sbst.Library(), cfg.TestSegmentCycles),
		Options:     cfg.SchedOptions,
	}
	switch cfg.TestPolicy {
	case PolicyNoTest:
		s.policy = scheduler.NoTest{}
	case PolicyNaive:
		s.pots, err = scheduler.NewNaiveIdle(schedCfg)
		s.policy = s.pots
	case PolicyPeriodic:
		s.pots, err = scheduler.NewPeriodic(schedCfg)
		s.policy = s.pots
	default:
		s.pots, err = scheduler.NewPOTS(schedCfg)
		s.policy = s.pots
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Close is a no-op: a System owns no goroutines or OS handles once New
// returns. It stays so that drivers which defer it keep compiling, and
// it may be called any number of times.
func (s *System) Close() {}

// Run executes the configured horizon and returns the report.
//
// The epoch grid continues from lastEpochAt, which is 0 on a fresh run
// and the snapshot instant on a resumed one. Every arrival at or before
// an epoch instant is admitted before that epoch runs, so an arrival
// landing exactly on a boundary waits for no further epoch, in fresh
// and resumed runs alike.
func (s *System) Run() (*Report, error) {
	for now := s.lastEpochAt + s.cfg.Epoch; now <= s.cfg.Horizon; now += s.cfg.Epoch {
		if err := s.admitArrivals(now); err != nil {
			return nil, err
		}
		if s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := s.epoch(now); err != nil {
			return nil, err
		}
		if s.onEpoch != nil {
			s.onEpoch(s.totalEpochs, now)
		}
		stop := s.stopReq.Load()
		if s.ckptSink != nil && (stop || (s.ckptEvery > 0 && s.totalEpochs%s.ckptEvery == 0)) {
			snap, err := s.Snapshot()
			if err == nil {
				err = s.ckptSink(snap)
			}
			if err != nil {
				return nil, err
			}
		}
		if stop {
			return nil, ErrInterrupted
		}
	}
	// Arrivals after the last epoch instant still count as arrived.
	if err := s.admitArrivals(s.cfg.Horizon); err != nil {
		return nil, err
	}
	if s.capture != nil && s.cfg.RecordTracePath != "" {
		f, err := os.Create(s.cfg.RecordTracePath)
		if err != nil {
			return nil, err
		}
		werr := workload.WriteTrace(f, s.capture.Entries())
		cerr := f.Close()
		if werr != nil {
			return nil, werr
		}
		if cerr != nil {
			return nil, cerr
		}
	}
	rep := s.report()
	// Final metric finiteness gate: a NaN that slipped past the epoch
	// checks (e.g. produced in the last partial interval) must not flow
	// into experiment tables as a silently poisoned report.
	if err := rep.Sanity(); err != nil {
		if gerr := s.guard.Violatef("report.finite", "%v", err); gerr != nil {
			return nil, gerr
		}
		rep.attachGuard(s.guard) // refresh the tally under LogAndContinue
	}
	return rep, nil
}

// admitArrivals enqueues every arrival due at or before now, in order,
// each stamped with its own arrival time.
func (s *System) admitArrivals(now sim.Time) error {
	for s.source.PeekNext() <= now {
		a, err := s.source.Next()
		if err != nil {
			return err
		}
		s.arrived++
		s.enqueue(&appRun{seq: a.Seq, graph: a.Graph, arrivedAt: a.At})
		s.events.Record(eventlog.Event{
			At: a.At, Kind: eventlog.AppArrived, Core: -1, App: a.Seq,
			Note: a.Graph.Name,
		})
	}
	return nil
}

// StepEpoch advances the control loop by exactly one epoch past the
// last epoch boundary, outside Run: no arrivals are admitted and no
// checkpoints are taken. It exists for steady-state benchmarking and
// deterministic micro-drivers; Run remains the normal entry point and
// the two must not be interleaved on one System.
//
//potlint:allocfree
func (s *System) StepEpoch() error {
	return s.epoch(s.lastEpochAt + s.cfg.Epoch)
}

// epoch is the per-control-period body: integrate the elapsed interval,
// then make mapping / power / test decisions for the next one.
//
//potlint:allocfree
func (s *System) epoch(now sim.Time) error {
	dt := now - s.lastEpochAt
	if dt < 0 {
		// Run and StepEpoch only step forward along the epoch grid, so
		// a backwards epoch clock means the system state is corrupt.
		return s.guard.Violatef("clock.monotonic",
			"epoch clock went backwards: %v -> %v", s.lastEpochAt, now)
	}
	if dt == 0 {
		return nil
	}
	if err := s.advance(now, dt); err != nil {
		return err
	}
	if err := s.checkInvariants(now); err != nil {
		return err
	}
	s.lastEpochAt = now
	s.totalEpochs++

	// 1. Power control: PID on measured chip power. With class-aware
	// DVFS, the throttle is shaped per criticality class so best-effort
	// work absorbs the cap first and hard real-time demand is protected.
	throttle := s.capper.Update(s.acct.ChipPower(), dt.Seconds())
	s.ceiling = s.capper.CeilingLevel(s.table)
	for _, class := range classOrder {
		u := throttle
		if s.cfg.ClassAwareDVFS {
			switch class {
			case workload.HardRT:
				u = math.Min(1, throttle+0.4)
			case workload.SoftRT:
				u = math.Min(1, throttle+0.2)
			}
		}
		lvl := int(math.Round(u * float64(s.table.Highest())))
		if lvl < 0 {
			lvl = 0
		}
		if lvl > s.table.Highest() {
			lvl = s.table.Highest()
		}
		s.classCeil[class] = lvl
	}

	// 2. Map pending applications (FIFO with head-of-line blocking).
	s.refreshGridView(now)
	progress := true
	for len(s.pending) > 0 && progress {
		app := s.pending[0]
		assign, ok := s.mapper.Map(app.graph, s.grid)
		if !ok {
			s.rejectedEpochs++
			progress = false
			break
		}
		s.place(app, assign, now)
		s.pending = s.pending[1:]
	}

	// 3. Test scheduling into the remaining power slack.
	s.planTests(now)

	// 4. Fault arrivals for the coming epoch. Decommissioned cores are
	// power-gated: no supply voltage, no new defects.
	if s.board != nil {
		for id := range s.cores {
			if s.cores[id].state == coreDead {
				continue
			}
			for _, f := range s.board.MaybeInject(now, s.cfg.Epoch, id, s.ager.Stress(id)) {
				s.events.Record(eventlog.Event{
					At: now, Kind: eventlog.FaultInjected, Core: id, App: -1,
					Note: f.Kind.String(),
				})
			}
		}
	}
	return nil
}

// refreshGridView mirrors occupancy plus the criticality/utilization
// signals the TUM mapper consumes.
func (s *System) refreshGridView(now sim.Time) {
	for id := range s.cores {
		cv := &s.grid.Cores[id]
		cv.Free = s.cores[id].state == coreFree || s.cores[id].state == coreTesting
		cv.Utilization = s.ager.Utilization(id)
		if s.pots != nil {
			cv.Criticality = s.pots.Criticality(id, now, s.ager.Stress(id), s.ager.Utilization(id))
		} else {
			cv.Criticality = 0
		}
	}
}

// place claims cores for an application, aborting any in-flight tests on
// them (the non-intrusive property: the workload never waits for a test).
func (s *System) place(app *appRun, assign mapping.Assignment, now sim.Time) {
	app.assign = assign
	app.mappedAt = now
	app.tasks = make([]taskRun, len(app.graph.Tasks))
	s.mapped++
	s.events.Record(eventlog.Event{
		At: now, Kind: eventlog.AppMapped, Core: -1, App: app.seq,
		Note: app.graph.Name,
	})
	s.appendQueueDelay(now - app.arrivedAt)
	s.dispersions = append(s.dispersions, mapping.Dispersion(app.graph, assign))

	for i := range app.graph.Tasks {
		t := &app.graph.Tasks[i]
		coreID := s.grid.Index(assign[t.ID])
		tr := &app.tasks[t.ID]
		tr.app = app
		tr.task = t
		tr.core = coreID
		tr.remaining = t.WorkCycles * int64(app.graph.Iterations)
		tr.depsLeft = len(t.Deps)
		tr.readyAt = now

		cr := &s.cores[coreID]
		if cr.state == coreTesting {
			s.abortTest(coreID, now)
		}
		cr.state = coreReserved
		cr.task = tr
		s.grid.Cores[coreID].Free = false
	}
}

// abortTest preempts the test on a core.
func (s *System) abortTest(coreID int, now sim.Time) {
	cr := &s.cores[coreID]
	if cr.test == nil {
		return
	}
	if resumed := cr.test.Abort(s.cfg.AbortPolicy); resumed != nil {
		cr.suspended = resumed // ResumePhase: completed phases are kept
	}
	cr.test = nil
	cr.state = coreFree
	s.policy.OnTestAborted(coreID, now)
	s.events.Record(eventlog.Event{
		At: now, Kind: eventlog.TestAborted, Core: coreID, App: -1,
	})
}

// planTests asks the policy for launches and starts the executions.
func (s *System) planTests(now sim.Time) {
	snaps := s.snapScratch
	for id := range s.cores {
		snaps[id] = scheduler.CoreSnapshot{
			ID:      id,
			Idle:    s.cores[id].state == coreFree,
			Testing: s.cores[id].state == coreTesting,
			Stress:  s.ager.Stress(id),
			Util:    s.ager.Utilization(id),
			TempK:   s.therm.Temperature(id),
		}
	}
	// Admit tests against a guarded budget and the FULL chip power
	// (including tests already in flight), so consecutive epochs cannot
	// stack admissions past the cap.
	slack := s.budget.TDP*(1-testGuardBand) - s.acct.ChipPower()
	if slack < 0 {
		slack = 0
	}
	for _, d := range s.policy.Plan(now, snaps, slack) {
		cr := &s.cores[d.Core]
		if cr.state != coreFree {
			continue // defensive: policy raced an occupancy change
		}
		if cr.suspended != nil {
			// Resume the preempted execution: its program is already on
			// the core, so no fresh delivery is needed.
			cr.test = cr.suspended
			cr.suspended = nil
			cr.state = coreTesting
			cr.level = cr.test.Level
			cr.testStallUntil = now
			continue
		}
		pt := s.table.Point(d.Level)
		cr.test = sbst.NewExec(d.Routine, d.Core, d.Level, pt, now, &s.phaseMemo)
		cr.state = coreTesting
		cr.level = d.Level
		// The test program is fetched from the memory controller at the
		// mesh corner; the routine stalls until it arrives.
		src := noc.Coord{X: 0, Y: 0}
		dst := s.grid.Coord(d.Core)
		if s.flitNet != nil {
			if pkt, err := s.flitNet.Inject(src, dst, 64); err == nil {
				// Stall until the co-simulated delivery lands.
				cr.testStallUntil = s.cfg.Horizon + sim.Second
				s.msgWait[pkt.ID] = msgTarget{succ: -1, core: d.Core, test: cr.test}
			} else {
				cr.testStallUntil = now + s.txn.Latency(src, dst, 64, s.netUtilization())
			}
		} else {
			cr.testStallUntil = now + s.txn.Latency(src, dst, 64, s.netUtilization())
		}
		s.testDelivery++
		if s.events.Enabled() {
			s.events.Record(eventlog.Event{
				At: now, Kind: eventlog.TestStarted, Core: d.Core, App: -1,
				Note: fmt.Sprintf("%s@L%d", d.Routine.Name, d.Level),
			})
		}
		// An excited fault on the core perturbs this run's responses.
		if s.board != nil && s.board.HasUndetected(d.Core) {
			cr.test.CorruptResponses(1)
		}
	}
}

// netUtilization estimates interconnect load from core occupancy.
func (s *System) netUtilization() float64 {
	busy := 0
	for id := range s.cores {
		if s.cores[id].state == coreRunning || s.cores[id].state == coreTesting {
			busy++
		}
	}
	return 0.5 * float64(busy) / float64(len(s.cores))
}

// cycleOf converts simulated time to NoC router cycles.
func (s *System) cycleOf(t sim.Time) int64 {
	return int64(t.Seconds() * s.cfg.NoCClockHz)
}

// timeOfCycle converts a router cycle back to simulated time.
func (s *System) timeOfCycle(c int64) sim.Time {
	return sim.FromSeconds(float64(c) / s.cfg.NoCClockHz)
}

// pumpFlitNet advances the co-simulated network to now and applies every
// delivery to its waiting consumer.
//
//potlint:allocfree
func (s *System) pumpFlitNet(now sim.Time) {
	if s.flitNet == nil {
		return
	}
	s.flitNet.AdvanceTo(s.cycleOf(now))
	delivered := s.flitNet.DeliveredSince(s.delivCursor)
	s.delivCursor += len(delivered)
	for _, pkt := range delivered {
		tgt, ok := s.msgWait[pkt.ID]
		if !ok {
			continue
		}
		delete(s.msgWait, pkt.ID)
		at := s.timeOfCycle(pkt.DeliveredAt)
		if at < now {
			at = now // deliveries bind at the epoch that observes them
		}
		if tgt.succ >= 0 {
			succ := &tgt.app.tasks[tgt.succ]
			succ.msgsInFlight--
			if at > succ.readyAt {
				succ.readyAt = at
			}
			continue
		}
		// Test-program delivery: only meaningful if that exact execution
		// is still in flight on the core.
		cr := &s.cores[tgt.core]
		if cr.state == coreTesting && cr.test == tgt.test {
			cr.testStallUntil = at
		}
	}
	// Everything consumed above is dead to the system (only pkt.ID and
	// DeliveredAt were read): recycle the structs so long co-simulations
	// run in bounded memory and later injects are alloc-free.
	s.flitNet.ReleaseDelivered(len(delivered))
}

// advance integrates tasks, tests, power, heat and aging over (now-dt,now].
//
//potlint:allocfree
func (s *System) advance(now sim.Time, dt sim.Time) error {
	s.pumpFlitNet(now)
	// powerVec and both accountant slots are written for every core
	// below, zeros for a decommissioned core; the aging states are not —
	// decommissioned cores skip the whole switch — so that buffer is
	// re-zeroed to match a freshly made slice.
	states := s.stateScratch
	powerVec := s.powerScratch
	clear(states)

	for id := range s.cores {
		cr := &s.cores[id]
		tempK := s.therm.Temperature(id)
		var wl, tst power.Breakdown

		switch cr.state {
		case coreReserved:
			tr := cr.task
			if tr.depsLeft == 0 && tr.msgsInFlight == 0 && now >= tr.readyAt {
				cr.state = coreRunning
				tr.started = true
				s.beginTask(tr)
			}
			// Reserved cores idle at the lowest level while waiting.
			pt := s.table.Point(0)
			wl = s.levels.Core(0, 0, tempK)
			states[id] = aging.CoreState{Voltage: pt.Voltage, TempK: tempK}

		case coreFree:
			pt := s.table.Point(0)
			wl = s.levels.Core(0, 0, tempK)
			states[id] = aging.CoreState{Voltage: pt.Voltage, TempK: tempK}
		}

		if cr.state == coreFree || cr.state == coreTesting {
			s.idleEpochs[id]++
		}

		if cr.state == coreRunning {
			tr := cr.task
			class := tr.app.graph.Class
			lvl := s.gov.LevelFor(tr.task.DemandHz, s.classCeil[class])
			if s.cfg.ThermalEmergencyK > 0 && tempK > s.cfg.ThermalEmergencyK {
				// Hardware thermal throttle: clamp to the lowest point
				// until the core cools below the limit.
				lvl = 0
				s.thermalEmergencies++
			}
			transition := sim.Time(0)
			if lvl != cr.level && tr.started && tr.executed > 0 {
				// Operating-point switch: PLL relock + voltage ramp
				// stall before execution resumes at the new level.
				transition = s.cfg.DVFSTransition
				if transition > dt {
					transition = dt
				}
				s.dvfsTransitions++
			}
			cr.level = lvl
			s.classSlowSum[class] += s.gov.Slowdown(tr.task.DemandHz, lvl)
			s.classSlowObs[class]++
			pt := s.table.Point(lvl)
			rate := pt.FreqHz
			if s.memory != nil {
				rate *= s.memory.SlowdownFactor(id, tr.task.MemIntensity)
				s.memory.AddDemand(id, tr.task.MemIntensity*pt.FreqHz)
			}
			executed := int64((dt - transition).Seconds() * rate)
			tr.remaining -= executed
			tr.executed += executed
			if !tr.iterFired && tr.executed >= tr.effIter {
				s.fireFirstIteration(tr, now)
			}
			wl = s.levels.Core(lvl, tr.task.Activity, tempK)
			states[id] = aging.CoreState{Utilization: 1, Voltage: pt.Voltage, TempK: tempK}
			s.busyCoreEpochs++
			if tr.remaining <= 0 {
				s.completeTask(tr, now)
			}
		}

		if cr.state == coreTesting {
			ex := cr.test
			if now > cr.testStallUntil {
				ex.Advance(dt)
			}
			// ex.Point is table.Point(ex.Level) at launch and after Restore.
			tst = s.levels.Core(ex.Level, ex.CurrentActivity(), tempK)
			states[id] = aging.CoreState{Utilization: 1, Voltage: ex.Point.Voltage, TempK: tempK}
			if ex.Done() {
				s.completeTest(id, ex, now)
			}
		}

		s.acct.SetWorkload(id, wl)
		s.acct.SetTest(id, tst)
		powerVec[id] = wl.Total() + tst.Total()
	}

	if s.memory != nil {
		s.memory.EndEpoch()
	}
	if err := s.acct.Advance(now, s.budget.TDP); err != nil {
		// The accountant's clock disagreeing with the epoch clock is the
		// same corruption class as a backwards epoch; route it through
		// the guard so the policy decides panic/error/continue.
		if gerr := s.guard.Violatef("clock.monotonic", "%v", err); gerr != nil {
			return gerr
		}
	}
	s.budget.Check(s.acct.ChipPower())
	if err := s.therm.Advance(now, powerVec); err != nil {
		return err
	}
	return s.ager.Advance(now, states)
}

// checkInvariants evaluates the runtime guard registry after an epoch's
// integration: chip power finite and below the runaway ceiling, core
// temperatures inside physical bounds, aging metrics finite, and mapper
// occupancy consistent with the scheduler/test state. Under the Error
// policy the first violation aborts the epoch (and therefore the run);
// under LogAndContinue the violations are tallied into the report.
func (s *System) checkInvariants(now sim.Time) error {
	// Each condition is tested inline and Violatef runs only when it
	// fails, so the happy path never boxes the format arguments.
	chip := s.acct.ChipPower()
	if !(!math.IsNaN(chip) && !math.IsInf(chip, 0) && chip >= 0) {
		if err := s.guard.Violatef("power.finite",
			"chip power %v W at t=%v", chip, now); err != nil {
			return err
		}
	}
	if !(chip <= s.guardPowerCapW) {
		if err := s.guard.Violatef("power.cap",
			"chip power %.3f W above runaway ceiling %.3f W (TDP %.3f W) at t=%v",
			chip, s.guardPowerCapW, s.budget.TDP, now); err != nil {
			return err
		}
	}
	// A healthy RC grid can neither undershoot ambient by more than
	// integration ringing nor melt the die.
	if terr := s.therm.CheckSane(s.cfg.thermalConfig().AmbientK-5, 1000); terr != nil {
		if err := s.guard.Violatef("thermal.bounds", "%v at t=%v", terr, now); err != nil {
			return err
		}
	}
	for id := range s.cores {
		stress, util := s.ager.Stress(id), s.ager.Utilization(id)
		if !(!math.IsNaN(stress) && !math.IsInf(stress, 0) && stress >= 0 &&
			!math.IsNaN(util) && !math.IsInf(util, 0) && util >= 0) {
			if err := s.guard.Violatef("metrics.finite",
				"core %d aging metrics stress=%v util=%v at t=%v",
				id, stress, util, now); err != nil {
				return err
			}
		}
		if err := s.checkOccupancy(id, now); err != nil {
			return err
		}
	}
	return nil
}

// checkOccupancy verifies one core's state machine against the mapper's
// grid view and the scheduler/test ownership pointers.
func (s *System) checkOccupancy(id int, now sim.Time) error {
	cr := &s.cores[id]
	free := s.grid.Cores[id].Free
	ok, detail := true, ""
	switch cr.state {
	case coreReserved, coreRunning:
		if cr.task == nil {
			ok, detail = false, "occupied core has no task"
		} else if free {
			ok, detail = false, "occupied core marked free in mapper grid"
		}
		if cr.test != nil {
			ok, detail = false, "occupied core still owns a test execution"
		}
	case coreTesting:
		if cr.test == nil {
			ok, detail = false, "testing core has no test execution"
		}
		if cr.task != nil {
			ok, detail = false, "testing core still owns a task"
		}
	case coreFree:
		if cr.task != nil || cr.test != nil {
			ok, detail = false, "free core still owns work"
		}
	case coreDead:
		if cr.task != nil || cr.test != nil {
			ok, detail = false, "decommissioned core still owns work"
		} else if free {
			ok, detail = false, "decommissioned core marked free in mapper grid"
		}
	}
	if ok {
		return nil
	}
	return s.guard.Violatef("mapper.occupancy",
		"core %d state=%d: %s at t=%v", id, cr.state, detail, now)
}

// beginTask fixes the task's effective per-iteration cost now that the
// mapping is known: each frame pays the worst inbound communication
// latency of its dependency edges (scaled to full stream volume), so a
// dispersed mapping slows the whole pipeline down.
func (s *System) beginTask(tr *taskRun) {
	stallCycles := int64(0)
	if len(tr.task.Deps) > 0 && s.cfg.CommScale > 0 {
		util := s.netUtilization()
		var worst sim.Time
		app := tr.app
		for _, d := range tr.task.Deps {
			flits := app.graph.Tasks[d].CommFlits[tr.task.ID]
			if flits < 1 {
				flits = 16 // control-only edge still synchronises
			}
			lat := s.txn.Latency(app.assign[d], app.assign[tr.task.ID],
				flits*s.cfg.CommScale, util)
			if lat > worst {
				worst = lat
			}
		}
		stallCycles = int64(worst.Seconds() * tr.task.DemandHz)
	}
	tr.effIter = tr.task.WorkCycles + stallCycles
	tr.remaining = tr.effIter * int64(tr.app.graph.Iterations)
	tr.executed = 0
}

// fireFirstIteration delivers a task's first frame to its successors:
// their dependency counts drop and their start is delayed by the NoC
// communication latency of the produced data.
//
//potlint:allocfree
func (s *System) fireFirstIteration(tr *taskRun, now sim.Time) {
	tr.iterFired = true
	app := tr.app
	util := s.netUtilization()
	scale := s.cfg.CommScale
	if scale < 1 {
		scale = 1
	}
	// CommFlits is a map; iterate successors in the graph's cached sorted
	// order so flit injection order (and thus router arbitration) is
	// reproducible.
	for _, succID := range tr.task.Successors() {
		flits := tr.task.CommFlits[succID]
		succ := &app.tasks[succID]
		if succ.task == nil {
			continue // defensive; validated graphs always have tasks
		}
		if flits < 1 {
			flits = 16
		}
		src, dst := app.assign[tr.task.ID], app.assign[succID]
		if s.flitNet != nil {
			pkt, err := s.flitNet.Inject(src, dst, flits*scale)
			if err == nil {
				succ.msgsInFlight++
				s.msgWait[pkt.ID] = msgTarget{app: app, succ: succID}
				continue
			}
			// Injection can only fail on geometry errors; fall back.
		}
		arrive := now + s.txn.Latency(src, dst, flits*scale, util)
		if arrive > succ.readyAt {
			succ.readyAt = arrive
		}
	}
	for i := range app.graph.Tasks {
		succ := &app.tasks[i]
		for _, d := range succ.task.Deps {
			if d == tr.task.ID {
				succ.depsLeft--
			}
		}
	}
}

// completeTask retires a task and releases its core.
func (s *System) completeTask(tr *taskRun, now sim.Time) {
	tr.done = true
	tr.remaining = 0
	s.completedTasks++
	app := tr.app
	s.classTasks[app.graph.Class]++
	app.doneTasks++

	// A task that somehow never crossed its first-iteration mark (e.g.
	// single-epoch tasks) still unblocks its successors on completion.
	if !tr.iterFired {
		s.fireFirstIteration(tr, now)
	}

	// A live fault on the core may silently corrupt the task's output.
	if s.board != nil {
		s.board.RecordCorruption(tr.core)
	}

	cr := &s.cores[tr.core]
	cr.state = coreFree
	cr.task = nil
	s.grid.Cores[tr.core].Free = true

	if app.doneTasks == len(app.tasks) {
		s.completedApps++
		s.appLatency = append(s.appLatency, now-app.arrivedAt)
		s.events.Record(eventlog.Event{
			At: now, Kind: eventlog.AppCompleted, Core: -1, App: app.seq,
			Note: app.graph.Name,
		})
	}
}

// completeTest finishes an SBST run: signature comparison plus the
// probabilistic coverage model decide detection. A test run below nominal
// frequency under-detects delay faults (at-speed ratio), which is why the
// scheduler's level rotation always returns to the top level.
func (s *System) completeTest(coreID int, ex *sbst.Exec, now sim.Time) {
	cr := &s.cores[coreID]
	cr.test = nil
	cr.state = coreFree
	s.policy.OnTestComplete(coreID, ex.Level, now)
	if s.events.Enabled() {
		s.events.Record(eventlog.Event{
			At: now, Kind: eventlog.TestCompleted, Core: coreID, App: -1,
			Note: fmt.Sprintf("%s@L%d cov=%.2f", ex.Routine.Name, ex.Level, ex.Coverage()),
		})
	}
	if s.board == nil {
		return
	}
	atSpeed := ex.Point.FreqHz / s.cfg.Node.FMaxHz
	var caught []*faults.Fault
	if !ex.SignatureMatches() {
		// The MISR flagged the core: attribute detection to the live
		// faults according to the routine's coverage and test speed.
		caught = s.board.ApplyTest(coreID, now, ex.CoverageSA(), ex.CoverageDelay(), atSpeed)
		for _, f := range caught {
			s.events.Record(eventlog.Event{
				At: now, Kind: eventlog.FaultDetected, Core: coreID, App: -1,
				Note: f.Kind.String(),
			})
		}
	} else {
		// No signature mismatch; faults (if any) escaped this run.
		s.board.ApplyTest(coreID, now, 0, 0, atSpeed)
	}
	if len(caught) > 0 && s.cfg.DecommissionOnDetect {
		s.decommission(coreID, now)
	}
}

// decommission takes a faulty core out of service: power-gated, removed
// from the mapping pool, and no longer scheduled for tests (the fail-stop
// recovery action of the journal extension).
func (s *System) decommission(coreID int, now sim.Time) {
	cr := &s.cores[coreID]
	cr.state = coreDead
	cr.test = nil
	cr.suspended = nil
	cr.task = nil
	s.grid.Cores[coreID].Free = false
	s.decommissioned = append(s.decommissioned, coreID)
	s.events.Record(eventlog.Event{
		At: now, Kind: eventlog.Decommissioned, Core: coreID, App: -1,
	})
}

func (s *System) appendQueueDelay(d sim.Time) {
	s.queueDelay = append(s.queueDelay, d)
}

// Events exposes the run's event audit trail (empty when the
// configuration disabled it).
func (s *System) Events() *eventlog.Log { return s.events }

// enqueue appends an arrived application to the pending queue. Mapping
// admission stays FIFO across classes — the ICCD'14 priority treatment
// lives in the DVFS shaping (classCeil), not in admission, so no class
// can starve another out of the chip.
func (s *System) enqueue(app *appRun) {
	s.pending = append(s.pending, app)
}
