package scheduler

import (
	"fmt"

	"potsim/internal/sim"
)

// POTSState is the serializable state of a POTS scheduler (which also
// backs the NaiveIdle and Periodic baselines). Options, models, and the
// routine set are configuration, reconstructed by the caller.
type POTSState struct {
	LastTest  []sim.Time `json:"last_test"`
	NextLevel []int      `json:"next_level"`
	NextRtn   []int      `json:"next_rtn"`
	RRCursor  int        `json:"rr_cursor"`
	Stats     Stats      `json:"stats"`
}

// Snapshot captures the scheduler's per-core history and counters.
func (p *POTS) Snapshot() POTSState {
	return POTSState{
		LastTest:  append([]sim.Time(nil), p.lastTest...),
		NextLevel: append([]int(nil), p.nextLevel...),
		NextRtn:   append([]int(nil), p.nextRtn...),
		RRCursor:  p.rrCursor,
		Stats:     p.Stats(), // deep copy of the slices inside
	}
}

// Restore overwrites the scheduler's state with a snapshot taken from a
// scheduler of the same core count.
func (p *POTS) Restore(st POTSState) error {
	n := len(p.lastTest)
	if len(st.LastTest) != n || len(st.NextLevel) != n || len(st.NextRtn) != n {
		return fmt.Errorf("scheduler: snapshot sized %d/%d/%d, scheduler has %d cores",
			len(st.LastTest), len(st.NextLevel), len(st.NextRtn), n)
	}
	if len(st.Stats.LevelRuns) != len(p.stats.LevelRuns) {
		return fmt.Errorf("scheduler: snapshot has %d DVFS levels, scheduler has %d",
			len(st.Stats.LevelRuns), len(p.stats.LevelRuns))
	}
	copy(p.lastTest, st.LastTest)
	copy(p.nextLevel, st.NextLevel)
	copy(p.nextRtn, st.NextRtn)
	p.rrCursor = st.RRCursor
	p.stats = Stats{
		Started:          st.Stats.Started,
		Completed:        st.Stats.Completed,
		Aborted:          st.Stats.Aborted,
		SkippedPower:     st.Stats.SkippedPower,
		SkippedThermal:   st.Stats.SkippedThermal,
		LevelRuns:        append([]int(nil), st.Stats.LevelRuns...),
		PerCoreCompleted: append([]int(nil), st.Stats.PerCoreCompleted...),
	}
	if p.stats.PerCoreCompleted == nil {
		p.stats.PerCoreCompleted = make([]int, n)
	}
	return nil
}
