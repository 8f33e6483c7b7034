package sim

import (
	"container/heap"
	"errors"
	"fmt"
)

// Handler is a callback invoked when an event fires. The engine passes
// itself so handlers can schedule follow-up events.
type Handler func(e *Engine)

// event is a scheduled callback. Events firing at the same instant are
// ordered first by class and then by sequence number (FIFO), which keeps
// runs deterministic. Fired and cancelled events are recycled through the
// engine's freelist; gen distinguishes incarnations so a stale EventID
// can never cancel the slot's next occupant.
type event struct {
	at      Time
	class   uint8
	seq     uint64
	gen     uint64
	handler Handler
	index   int // heap index; -1 once popped or cancelled
}

// EventID identifies a scheduled event so it can be cancelled. It stays
// valid (as a no-op) after the event fires, even though the underlying
// slot is recycled for later events.
type EventID struct {
	ev  *event
	gen uint64
}

// eventQueue is a binary min-heap ordered by (at, class, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].class != q[j].class {
		return q[i].class < q[j].class
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; the manycore model drives it from a single goroutine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue //potlint:nosnap pending events hold closures; owners re-post them on resume
	stopped bool       //potlint:nosnap stop latch is runtime wiring; a restored engine starts runnable
	fired   uint64
	// free recycles fired/cancelled event slots so a steady-state event
	// loop (periodic ticks, arrival chains) schedules without allocating.
	free []*event //potlint:nosnap recycling pool, content-free by definition
}

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// ErrPast is returned when scheduling an event before the current time.
var ErrPast = errors.New("sim: event scheduled in the past")

// Schedule registers handler to fire at absolute time at. Events at the
// same instant and class fire in scheduling order.
func (e *Engine) Schedule(at Time, handler Handler) (EventID, error) {
	return e.ScheduleClass(at, 0, handler)
}

// ScheduleClass registers handler to fire at absolute time at within the
// given ordering class. At equal timestamps, lower classes fire first
// regardless of scheduling order. Distinct chains of events that can
// collide in time (such as workload arrivals and epoch ticks) must use
// distinct classes: the relative scheduling order of two chains depends
// on their firing history, which a checkpoint cannot carry across a
// restart, whereas class order is a property of the code alone.
func (e *Engine) ScheduleClass(at Time, class uint8, handler Handler) (EventID, error) {
	if at < e.now {
		return EventID{}, fmt.Errorf("%w: at=%v now=%v", ErrPast, at, e.now)
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.class, ev.seq, ev.handler = at, class, e.seq, handler
	} else {
		ev = &event{at: at, class: class, seq: e.seq, handler: handler}
	}
	e.seq++
	heap.Push(&e.queue, ev)
	return EventID{ev: ev, gen: ev.gen}, nil
}

// recycle returns a popped or removed event slot to the freelist. The
// generation bump invalidates every EventID issued for the old
// incarnation; dropping the handler reference releases its closure.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.handler = nil
	e.free = append(e.free, ev)
}

// After registers handler to fire delay after the current time.
func (e *Engine) After(delay Time, handler Handler) EventID {
	if delay < 0 {
		delay = 0
	}
	id, _ := e.Schedule(e.now+delay, handler) // never in the past
	return id
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and reports false.
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.index < 0 || ev.gen != id.gen {
		return false
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
	e.recycle(ev)
	return true
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	e.now = ev.at
	e.fired++
	h := ev.handler
	// Recycle before invoking: the handler may schedule follow-ups, which
	// can then reuse this very slot without touching the allocator.
	e.recycle(ev)
	h(e)
	return true
}

// RunUntil executes events in timestamp order until the queue is empty,
// Stop is called, or the next event lies beyond horizon. The clock is left
// at the time of the last executed event, or advanced to horizon when it
// drains early, so periodic controllers observe a full final interval.
func (e *Engine) RunUntil(horizon Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 {
			break
		}
		if e.queue[0].at > horizon {
			break
		}
		e.Step()
	}
	if e.now < horizon && !e.stopped {
		e.now = horizon
	}
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// EveryClass schedules handler periodically, first at start and then
// each period, until the returned cancel function is invoked. The
// handler may call the cancel function itself to end the series. The
// ticks run in the given ordering class; see ScheduleClass for when a
// non-zero class matters. A non-positive period is rejected with an
// error (a silent zero period would spin the event loop forever at one
// instant).
func (e *Engine) EveryClass(start, period Time, class uint8, handler Handler) (cancel func(), err error) {
	if period <= 0 {
		return nil, fmt.Errorf("sim: EveryClass requires a positive period, got %v", period)
	}
	stopped := false
	var id EventID
	var tick Handler
	tick = func(en *Engine) {
		if stopped {
			return
		}
		handler(en)
		if stopped {
			return
		}
		id, _ = en.ScheduleClass(en.now+period, class, tick) // never in the past
	}
	var serr error
	id, serr = e.ScheduleClass(start, class, tick)
	if serr != nil {
		id = e.After(0, tick)
	}
	return func() {
		stopped = true
		e.Cancel(id)
	}, nil
}

// EngineState is the serializable portion of an engine: its clock and
// event counters. Pending events hold closures and cannot be serialized;
// checkpoints are therefore taken at points where the owner can
// reconstruct its event chains from domain state (see core.System).
type EngineState struct {
	Now   Time   `json:"now"`
	Seq   uint64 `json:"seq"`
	Fired uint64 `json:"fired"`
}

// Snapshot captures the engine clock and counters.
func (e *Engine) Snapshot() EngineState {
	return EngineState{Now: e.now, Seq: e.seq, Fired: e.fired}
}

// Restore rewinds a fresh engine to a snapshotted clock. It refuses to
// run on an engine that already has pending events, because those events
// were scheduled against the old clock.
func (e *Engine) Restore(st EngineState) error {
	if len(e.queue) != 0 {
		return fmt.Errorf("sim: Restore on an engine with %d pending events", len(e.queue))
	}
	if st.Now < 0 {
		return fmt.Errorf("sim: Restore with negative clock %v", st.Now)
	}
	e.now = st.Now
	e.seq = st.Seq
	e.fired = st.Fired
	return nil
}
