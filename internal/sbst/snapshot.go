package sbst

import (
	"fmt"

	"potsim/internal/sim"
	"potsim/internal/tech"
)

// ExecState is the serializable state of an in-flight (or suspended)
// routine execution: the routine itself, the grant, progress, both
// compactor states, and the accumulated coverage products. Restoring it
// yields an Exec that continues mid-phase, cycle- and signature-exact.
type ExecState struct {
	Routine Routine             `json:"routine"`
	Core    int                 `json:"core"`
	Level   int                 `json:"level"`
	Point   tech.OperatingPoint `json:"point"`
	Started sim.Time            `json:"started"`

	Phase      int     `json:"phase"`
	CycleInPh  int64   `json:"cycle_in_ph"`
	MISR       uint32  `json:"misr"`
	Gen        uint32  `json:"gen"`
	MissSA     float64 `json:"miss_sa"`
	MissDelay  float64 `json:"miss_delay"`
	DoneWords  int     `json:"done_words"`
	FaultWords int     `json:"fault_words"`
}

// Snapshot captures the execution's full state.
func (e *Exec) Snapshot() ExecState {
	return ExecState{
		Routine: e.Routine, Core: e.Core, Level: e.Level, Point: e.Point, Started: e.Started,
		Phase: e.phase, CycleInPh: e.cycleInPh,
		MISR: e.misr.state, Gen: e.gen.state,
		MissSA: e.missSA, MissDelay: e.missDelay,
		DoneWords: e.doneWords, FaultWords: e.faultWords,
	}
}

// RestoreExec reconstructs an execution from a snapshot.
func RestoreExec(st ExecState) (*Exec, error) {
	if err := st.Routine.Validate(); err != nil {
		return nil, fmt.Errorf("sbst: snapshot routine invalid: %w", err)
	}
	if st.Phase < 0 || st.Phase > len(st.Routine.Phases) {
		return nil, fmt.Errorf("sbst: snapshot phase %d out of range [0,%d]", st.Phase, len(st.Routine.Phases))
	}
	e := &Exec{
		Routine: st.Routine, Core: st.Core, Level: st.Level, Point: st.Point, Started: st.Started,
		phase: st.Phase, cycleInPh: st.CycleInPh,
		misr: MISR{state: st.MISR}, golden: goldenPrefix(st.Routine, st.Level, st.Phase),
		missSA: st.MissSA, missDelay: st.MissDelay,
		doneWords: st.DoneWords, faultWords: st.FaultWords,
	}
	e.coveredSA = 1 - e.missSA
	e.coveredDelay = 1 - e.missDelay
	if !e.Done() {
		e.gen = ResponseGenerator{state: st.Gen}
	}
	return e, nil
}
