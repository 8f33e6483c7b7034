// Package simpkg is analyzed under potsim/internal/sim, inside the
// internal tree, so its Snapshot/Restore pairs are checked for field
// completeness.
package simpkg

import (
	"context"
	"sync"
	"sync/atomic"
)

// Queue mixes every field disposition: snapshotted, suppressed,
// missing on one side, missing on both, and the auto-exempt wiring
// kinds (locks, stop flags, contexts, funcs, channels).
type Queue struct {
	now int64
	seq uint64

	queue []int //potlint:nosnap pending closures are re-posted by the owner on resume

	free    []int // want `field Queue.free is not referenced by Snapshot or Restore`
	stopped bool  // want `field Queue.stopped is not referenced by Restore`

	mu     sync.Mutex
	stop   atomic.Bool
	ctx    context.Context
	onFire func()
	wake   chan struct{}
}

// QueueState is the serialized form.
type QueueState struct {
	Now     int64
	Seq     uint64
	Stopped bool
}

func (q *Queue) Snapshot() QueueState {
	return QueueState{Now: q.now, Seq: q.seq, Stopped: q.stopped}
}

func (q *Queue) Restore(st QueueState) {
	q.now = st.Now
	q.seq = st.Seq
}

// Log's state travels only through helper accessors: references must
// be collected transitively through same-package methods.
type Log struct {
	events []string
	limit  int
}

func (l *Log) Events() []string { return l.events }
func (l *Log) setLimit(n int)   { l.limit = n }

// LogState is the serialized form.
type LogState struct {
	Events []string
	Limit  int
}

func (l *Log) Snapshot() LogState { return LogState{Events: l.Events(), Limit: l.limit} }

func (l *Log) Restore(st LogState) {
	l.events = append(l.events[:0], st.Events...)
	l.setLimit(st.Limit)
}

// Exec restores through a package-level constructor (the sbst shape):
// composite-literal keys count as Restore-side references.
type Exec struct {
	Phase  int
	cursor int
	gen    int // want `field Exec.gen is not referenced by Restore`
}

// ExecState is the serialized form.
type ExecState struct {
	Phase, Cursor, Gen int
}

func (e *Exec) Snapshot() ExecState {
	return ExecState{Phase: e.Phase, Cursor: e.cursor, Gen: e.gen}
}

// RestoreExec rebuilds an Exec but forgets gen.
func RestoreExec(st ExecState) *Exec {
	return &Exec{Phase: st.Phase, cursor: st.Cursor}
}

// Half has a Snapshot but no Restore anywhere: not a pair, not checked.
type Half struct {
	hidden int
}

func (h *Half) Snapshot() int { return h.hidden }
