package dvfs

import "fmt"

// PIDState is the serializable state of a PIDCapper: the error history
// and control output. Gains and budget are configuration.
type PIDState struct {
	Err1     float64 `json:"err1"`
	Err2     float64 `json:"err2"`
	Throttle float64 `json:"throttle"`
	Primed   bool    `json:"primed"`
}

// Snapshot captures the controller state.
func (c *PIDCapper) Snapshot() PIDState {
	return PIDState{Err1: c.err1, Err2: c.err2, Throttle: c.throttle, Primed: c.primed}
}

// Restore overwrites the controller state with a snapshot.
func (c *PIDCapper) Restore(st PIDState) error {
	if st.Throttle < 0 || st.Throttle > 1 {
		return fmt.Errorf("dvfs: snapshot throttle %v outside [0,1]", st.Throttle)
	}
	c.err1 = st.Err1
	c.err2 = st.Err2
	c.throttle = st.Throttle
	c.primed = st.Primed
	return nil
}
