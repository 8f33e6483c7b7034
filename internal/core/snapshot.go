package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"potsim/internal/aging"
	"potsim/internal/dvfs"
	"potsim/internal/eventlog"
	"potsim/internal/faults"
	"potsim/internal/guard"
	"potsim/internal/mapping"
	"potsim/internal/mem"
	"potsim/internal/power"
	"potsim/internal/sbst"
	"potsim/internal/scheduler"
	"potsim/internal/sim"
	"potsim/internal/thermal"
	"potsim/internal/workload"
)

// Snapshot envelope identity for internal/checkpoint.
const (
	// SnapshotKind tags system snapshots in the checkpoint envelope.
	SnapshotKind = "potsim-system"
	// SnapshotVersion is bumped whenever the Snapshot layout changes
	// incompatibly; older snapshots are rejected, never reinterpreted.
	SnapshotVersion = 1
)

// taskState is the serializable progress of one task instance. The task
// definition itself lives in the application graph.
type taskState struct {
	Remaining int64    `json:"remaining"`
	Executed  int64    `json:"executed"`
	EffIter   int64    `json:"eff_iter"`
	ReadyAt   sim.Time `json:"ready_at"`
	DepsLeft  int      `json:"deps_left"`
	IterFired bool     `json:"iter_fired"`
	Started   bool     `json:"started"`
	Done      bool     `json:"done"`
}

// appState is one live application: either pending in the mapping queue
// or placed with in-flight tasks. The graph is embedded because random
// graphs exist nowhere but in the run that generated them.
type appState struct {
	Seq       int                `json:"seq"`
	Graph     *workload.Graph    `json:"graph"`
	ArrivedAt sim.Time           `json:"arrived_at"`
	MappedAt  sim.Time           `json:"mapped_at"`
	Assign    mapping.Assignment `json:"assign,omitempty"`
	Tasks     []taskState        `json:"tasks,omitempty"`
	DoneTasks int                `json:"done_tasks"`
	Pending   bool               `json:"pending"`
}

// coreSnapState is one core's occupancy. App/Task reference the Apps list
// by index and task ID; -1 means unoccupied.
type coreSnapState struct {
	State          int             `json:"state"`
	App            int             `json:"app"`
	Task           int             `json:"task"`
	Level          int             `json:"level"`
	TestStallUntil sim.Time        `json:"test_stall_until"`
	Test           *sbst.ExecState `json:"test,omitempty"`
	Suspended      *sbst.ExecState `json:"suspended,omitempty"`
}

// counterState carries the run's accumulated metrics.
type counterState struct {
	Arrived            int        `json:"arrived"`
	Mapped             int        `json:"mapped"`
	CompletedApps      int        `json:"completed_apps"`
	CompletedTasks     int        `json:"completed_tasks"`
	RejectedEpochs     int        `json:"rejected_epochs"`
	AppLatency         []sim.Time `json:"app_latency"`
	QueueDelay         []sim.Time `json:"queue_delay"`
	Dispersions        []float64  `json:"dispersions"`
	BusyCoreEpochs     int64      `json:"busy_core_epochs"`
	TotalEpochs        int64      `json:"total_epochs"`
	ClassTasks         [3]int     `json:"class_tasks"`
	ClassSlowSum       [3]float64 `json:"class_slow_sum"`
	ClassSlowObs       [3]int64   `json:"class_slow_obs"`
	ThermalEmergencies int64      `json:"thermal_emergencies"`
	DVFSTransitions    int64      `json:"dvfs_transitions"`
	IdleEpochs         []int64    `json:"idle_epochs"`
	TestDelivery       int        `json:"test_delivery"`
	Decommissioned     []int      `json:"decommissioned"`
}

// Snapshot is the complete mutable state of a System at an epoch
// boundary. Configuration is NOT part of the snapshot — the resuming
// process reconstructs the System from the same Config and Restore
// verifies the hash, so a snapshot can never silently run under a
// different setup.
type Snapshot struct {
	ConfigHash  string                 `json:"config_hash"`
	LastEpochAt sim.Time               `json:"last_epoch_at"`
	Ceiling     int                    `json:"ceiling"`
	ClassCeil   [3]int                 `json:"class_ceil"`
	Source      *workload.SourceState  `json:"source,omitempty"`
	Replay      *workload.ReplayState  `json:"replay,omitempty"`
	Capture     *workload.CaptureState `json:"capture,omitempty"`
	FaultMisc   uint64                 `json:"fault_misc"`
	Capper      dvfs.PIDState          `json:"capper"`
	Acct        power.AccountantState  `json:"acct"`
	Budget      power.BudgetState      `json:"budget"`
	Thermal     thermal.GridState      `json:"thermal"`
	Aging       aging.TrackerState     `json:"aging"`
	Faults      *faults.BoardState     `json:"faults,omitempty"`
	Sched       *scheduler.POTSState   `json:"sched,omitempty"`
	Memory      *mem.SubsystemState    `json:"memory,omitempty"`
	Events      eventlog.LogState      `json:"events"`
	Guard       guard.CheckerState     `json:"guard"`
	Grid        mapping.GridState      `json:"grid"`
	Apps        []appState             `json:"apps"`
	Cores       []coreSnapState        `json:"cores"`
	Counters    counterState           `json:"counters"`
}

// ConfigHash fingerprints a configuration. Snapshots embed it and
// Restore refuses a mismatch: resuming under a different configuration
// would silently produce a run that matches neither setup.
func ConfigHash(cfg Config) (string, error) {
	blob, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("core: hashing config: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// Snapshot captures the system's full mutable state. It must be called
// at an epoch boundary (Run calls it there for CheckpointEvery and
// RequestStop); flit-mode runs carry in-flight network state that has no
// serialization and are refused.
func (s *System) Snapshot() (*Snapshot, error) {
	if s.flitNet != nil {
		return nil, fmt.Errorf("core: flit-mode runs cannot be checkpointed (in-flight network state is not serializable); use NoCMode=txn")
	}
	hash, err := ConfigHash(s.cfg)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{
		ConfigHash:  hash,
		LastEpochAt: s.lastEpochAt,
		Ceiling:     s.ceiling,
		ClassCeil:   s.classCeil,
		Capper:      s.capper.Snapshot(),
		Acct:        s.acct.Snapshot(),
		Budget:      s.budget.Snapshot(),
		Thermal:     s.therm.Snapshot(),
		Aging:       s.ager.Snapshot(),
		Events:      s.events.Snapshot(),
		Guard:       s.guard.Snapshot(),
		Grid:        s.grid.Snapshot(),
	}
	// refreshGridView computes criticality for free cores only. Give the
	// others the value it would have computed at this epoch: lastTest,
	// stress and utilization change only inside advance, which ran before
	// it, so the inputs are the same.
	for id := range snap.Grid.Cores {
		if cv := &snap.Grid.Cores[id]; !cv.Free {
			cv.Criticality = s.criticality(id, s.lastEpochAt)
		}
	}
	if s.gen != nil {
		st := s.gen.Snapshot()
		snap.Source = &st
	}
	if rp, ok := s.source.(*workload.Replay); ok {
		st := rp.Snapshot()
		snap.Replay = &st
	}
	if s.capture != nil {
		st := s.capture.Snapshot()
		snap.Capture = &st
	}
	if s.faultRn != nil {
		snap.FaultMisc = s.faultRn.State()
	}
	if s.board != nil {
		st := s.board.Snapshot()
		snap.Faults = &st
	}
	if s.pots != nil {
		st := s.pots.Snapshot()
		snap.Sched = &st
	}
	if s.memory != nil {
		st := s.memory.Snapshot()
		snap.Memory = &st
	}

	// Enumerate live applications: every placed app with unfinished tasks
	// holds at least one core (place reserves one core per task and each
	// is released only when its task completes), so walking the cores in
	// index order finds them all deterministically; the pending queue is
	// appended in FIFO order.
	appIdx := make(map[*appRun]int)
	var apps []appState
	addApp := func(app *appRun, pending bool) int {
		if i, ok := appIdx[app]; ok {
			return i
		}
		st := appState{
			Seq: app.seq, Graph: app.graph,
			ArrivedAt: app.arrivedAt, MappedAt: app.mappedAt,
			DoneTasks: app.doneTasks, Pending: pending,
		}
		if !pending {
			st.Assign = append(mapping.Assignment(nil), app.assign...)
			st.Tasks = make([]taskState, len(app.tasks))
			for i := range app.tasks {
				tr := &app.tasks[i]
				st.Tasks[i] = taskState{
					Remaining: tr.remaining, Executed: tr.executed,
					EffIter: tr.effIter, ReadyAt: tr.readyAt,
					DepsLeft: tr.depsLeft, IterFired: tr.iterFired,
					Started: tr.started, Done: tr.done,
				}
			}
		}
		appIdx[app] = len(apps)
		apps = append(apps, st)
		return len(apps) - 1
	}

	cores := make([]coreSnapState, len(s.cores))
	for id := range s.cores {
		cr := &s.cores[id]
		cs := coreSnapState{
			State: int(cr.state), App: -1, Task: -1,
			Level: cr.level, TestStallUntil: cr.testStallUntil,
		}
		if cr.task != nil {
			cs.App = addApp(cr.task.app, false)
			cs.Task = cr.task.task.ID
		}
		if cr.test != nil {
			st := cr.test.Snapshot()
			cs.Test = &st
		}
		if cr.suspended != nil {
			st := cr.suspended.Snapshot()
			cs.Suspended = &st
		}
		cores[id] = cs
	}
	for _, app := range s.pending {
		addApp(app, true)
	}
	snap.Apps = apps
	snap.Cores = cores

	snap.Counters = counterState{
		Arrived: s.arrived, Mapped: s.mapped,
		CompletedApps: s.completedApps, CompletedTasks: s.completedTasks,
		RejectedEpochs:     s.rejectedEpochs,
		AppLatency:         append([]sim.Time(nil), s.appLatency...),
		QueueDelay:         append([]sim.Time(nil), s.queueDelay...),
		Dispersions:        append([]float64(nil), s.dispersions...),
		BusyCoreEpochs:     s.busyCoreEpochs,
		TotalEpochs:        s.totalEpochs,
		ClassTasks:         s.classTasks,
		ClassSlowSum:       s.classSlowSum,
		ClassSlowObs:       s.classSlowObs,
		ThermalEmergencies: s.thermalEmergencies,
		DVFSTransitions:    s.dvfsTransitions,
		IdleEpochs:         append([]int64(nil), s.idleEpochs...),
		TestDelivery:       s.testDelivery,
		Decommissioned:     append([]int(nil), s.decommissioned...),
	}
	return snap, nil
}

// Restore loads a snapshot into a freshly constructed System built from
// the same Config the snapshot was taken under. It must be called before
// Run; the subsequent Run continues the interrupted simulation and its
// final report is byte-identical to the uninterrupted run's.
func (s *System) Restore(snap *Snapshot) error {
	if s.lastEpochAt != 0 || s.arrived != 0 {
		return fmt.Errorf("core: Restore requires a freshly constructed System")
	}
	if s.flitNet != nil {
		return fmt.Errorf("core: flit-mode runs cannot be resumed from a checkpoint; use NoCMode=txn")
	}
	hash, err := ConfigHash(s.cfg)
	if err != nil {
		return err
	}
	if snap.ConfigHash != hash {
		return fmt.Errorf("core: snapshot was taken under a different configuration (hash %.12s, this run %.12s); resume with the original configuration or start fresh", snap.ConfigHash, hash)
	}
	if len(snap.Cores) != len(s.cores) {
		return fmt.Errorf("core: snapshot has %d cores, system has %d", len(snap.Cores), len(s.cores))
	}
	if snap.LastEpochAt < 0 {
		return fmt.Errorf("core: snapshot has a negative epoch clock %v", snap.LastEpochAt)
	}

	// Arrival source. The config hash already pins the source kind; the
	// checks below turn a corrupted snapshot into a description instead
	// of a panic.
	switch {
	case snap.Source != nil:
		if s.gen == nil {
			return fmt.Errorf("core: snapshot carries generator state but this system replays a trace")
		}
		if err := s.gen.Restore(*snap.Source); err != nil {
			return err
		}
	case snap.Replay != nil:
		rp, ok := s.source.(*workload.Replay)
		if !ok {
			return fmt.Errorf("core: snapshot carries replay state but this system generates arrivals")
		}
		if err := rp.Restore(*snap.Replay); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: snapshot carries no arrival-source state")
	}
	if snap.Capture != nil {
		if s.capture == nil {
			return fmt.Errorf("core: snapshot carries a recorded trace but this run does not record one")
		}
		if err := s.capture.Restore(*snap.Capture); err != nil {
			return err
		}
	}
	if s.faultRn != nil {
		s.faultRn.SetState(snap.FaultMisc)
	}

	if err := s.capper.Restore(snap.Capper); err != nil {
		return err
	}
	if err := s.acct.Restore(snap.Acct); err != nil {
		return err
	}
	if err := s.budget.Restore(snap.Budget); err != nil {
		return err
	}
	if err := s.therm.Restore(snap.Thermal); err != nil {
		return err
	}
	if err := s.ager.Restore(snap.Aging); err != nil {
		return err
	}
	if (snap.Faults != nil) != (s.board != nil) {
		return fmt.Errorf("core: snapshot and system disagree on fault injection")
	}
	if s.board != nil {
		if err := s.board.Restore(*snap.Faults); err != nil {
			return err
		}
	}
	if (snap.Sched != nil) != (s.pots != nil) {
		return fmt.Errorf("core: snapshot and system disagree on the test policy")
	}
	if s.pots != nil {
		if err := s.pots.Restore(*snap.Sched); err != nil {
			return err
		}
	}
	if (snap.Memory != nil) != (s.memory != nil) {
		return fmt.Errorf("core: snapshot and system disagree on the memory model")
	}
	if s.memory != nil {
		if err := s.memory.Restore(*snap.Memory); err != nil {
			return err
		}
	}
	if err := s.events.Restore(snap.Events); err != nil {
		return err
	}
	if err := s.guard.Restore(snap.Guard); err != nil {
		return err
	}
	if err := s.grid.Restore(snap.Grid); err != nil {
		return err
	}

	// Rebuild the live applications and rewire the task/core pointer
	// graph the serialized form flattened into indices.
	apps := make([]*appRun, len(snap.Apps))
	s.pending = nil
	for i, as := range snap.Apps {
		if as.Graph == nil {
			return fmt.Errorf("core: snapshot app %d has no graph", i)
		}
		if err := as.Graph.Validate(); err != nil {
			return fmt.Errorf("core: snapshot app %d: %w", i, err)
		}
		app := &appRun{
			seq: as.Seq, graph: as.Graph,
			arrivedAt: as.ArrivedAt, mappedAt: as.MappedAt,
			doneTasks: as.DoneTasks,
		}
		if as.Pending {
			apps[i] = app
			s.pending = append(s.pending, app)
			continue
		}
		n := len(as.Graph.Tasks)
		if len(as.Assign) != n || len(as.Tasks) != n {
			return fmt.Errorf("core: snapshot app %d has %d tasks but %d assignments and %d task states",
				i, n, len(as.Assign), len(as.Tasks))
		}
		app.assign = append(mapping.Assignment(nil), as.Assign...)
		app.tasks = make([]taskRun, n)
		for t := 0; t < n; t++ {
			ts := as.Tasks[t]
			coreID := s.grid.Index(as.Assign[t])
			if coreID < 0 || coreID >= len(s.cores) {
				return fmt.Errorf("core: snapshot app %d task %d assigned off-mesh core %v", i, t, as.Assign[t])
			}
			app.tasks[t] = taskRun{
				app: app, task: &app.graph.Tasks[t], core: coreID,
				remaining: ts.Remaining, executed: ts.Executed,
				effIter: ts.EffIter, readyAt: ts.ReadyAt,
				depsLeft: ts.DepsLeft, iterFired: ts.IterFired,
				started: ts.Started, done: ts.Done,
			}
		}
		apps[i] = app
	}

	for id, cs := range snap.Cores {
		cr := &s.cores[id]
		if cs.State < int(coreFree) || cs.State > int(coreDead) {
			return fmt.Errorf("core: snapshot core %d has unknown state %d", id, cs.State)
		}
		s.setState(cr, coreState(cs.State))
		cr.level = cs.Level
		cr.testStallUntil = cs.TestStallUntil
		if cs.App >= 0 {
			if cs.App >= len(apps) {
				return fmt.Errorf("core: snapshot core %d references app %d of %d", id, cs.App, len(apps))
			}
			app := apps[cs.App]
			if cs.Task < 0 || cs.Task >= len(app.tasks) {
				return fmt.Errorf("core: snapshot core %d references task %d of app %d (%d tasks)", id, cs.Task, cs.App, len(app.tasks))
			}
			cr.task = &app.tasks[cs.Task]
		}
		if cs.Test != nil {
			ex, err := s.restoreExec(*cs.Test)
			if err != nil {
				return fmt.Errorf("core: snapshot core %d test: %w", id, err)
			}
			cr.test = ex
		}
		if cs.Suspended != nil {
			ex, err := s.restoreExec(*cs.Suspended)
			if err != nil {
				return fmt.Errorf("core: snapshot core %d suspended test: %w", id, err)
			}
			cr.suspended = ex
		}
	}

	c := snap.Counters
	if len(c.IdleEpochs) != len(s.cores) {
		return fmt.Errorf("core: snapshot idle-epoch vector has %d entries for %d cores", len(c.IdleEpochs), len(s.cores))
	}
	s.lastEpochAt = snap.LastEpochAt
	s.ceiling = snap.Ceiling
	s.classCeil = snap.ClassCeil
	s.arrived = c.Arrived
	s.mapped = c.Mapped
	s.completedApps = c.CompletedApps
	s.completedTasks = c.CompletedTasks
	s.rejectedEpochs = c.RejectedEpochs
	s.appLatency = append([]sim.Time(nil), c.AppLatency...)
	s.queueDelay = append([]sim.Time(nil), c.QueueDelay...)
	s.dispersions = append([]float64(nil), c.Dispersions...)
	s.busyCoreEpochs = c.BusyCoreEpochs
	s.totalEpochs = c.TotalEpochs
	s.classTasks = c.ClassTasks
	s.classSlowSum = c.ClassSlowSum
	s.classSlowObs = c.ClassSlowObs
	s.thermalEmergencies = c.ThermalEmergencies
	s.dvfsTransitions = c.DVFSTransitions
	copy(s.idleEpochs, c.IdleEpochs)
	s.testDelivery = c.TestDelivery
	s.decommissioned = append([]int(nil), c.Decommissioned...)
	return nil
}

// restoreExec rebuilds a snapshot's test execution and checks that it
// runs at its level's operating point, as advance prices it by level.
func (s *System) restoreExec(st sbst.ExecState) (*sbst.Exec, error) {
	ex, err := sbst.RestoreExec(st)
	if err != nil {
		return nil, err
	}
	if ex.Level < 0 || ex.Level >= s.table.Levels() || ex.Point != s.table.Point(ex.Level) {
		return nil, fmt.Errorf("level %d operating point %+v is not the DVFS table's", ex.Level, ex.Point)
	}
	return ex, nil
}
