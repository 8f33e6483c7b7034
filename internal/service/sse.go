package service

import (
	"sync"
)

// Event is one server-sent event on a job's stream. Progress events are
// conflatable — each one supersedes the last, so dropping some for a
// slow reader loses nothing but granularity. Lifecycle events (queued,
// running, done, failed, canceled, interrupted) are not: a reader too
// stalled to accept one is cut off rather than allowed to apply
// backpressure to the epoch loop.
type Event struct {
	Type string `json:"type"`

	JobID string `json:"job"`
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`

	// Progress payload (sim jobs: epochs; suite jobs: cells).
	Epochs     int64   `json:"epochs,omitempty"`
	SimMS      float64 `json:"simMS,omitempty"`
	Cell       int     `json:"cell,omitempty"`
	CellsDone  int     `json:"cellsDone,omitempty"`
	CellsTotal int     `json:"cellsTotal,omitempty"`

	conflatable bool
}

// Event types.
const (
	EventState    = "state"    // lifecycle transition; State carries the new state
	EventProgress = "progress" // periodic progress; conflatable
)

// Subscriber is one attached event stream. C is closed when the stream
// ends — either the job reached a terminal state or the subscriber
// stalled and was dropped.
type Subscriber struct {
	C      chan Event
	broker *broker
}

// Close detaches the subscriber. Safe to call whether or not the broker
// already dropped it.
func (s *Subscriber) Close() { s.broker.unsubscribe(s) }

// broker fans a job's events out to its subscribers. Publishing never
// blocks: each subscriber owns a bounded buffer, conflatable events are
// dropped when it is full, and a subscriber that cannot even accept a
// lifecycle event is detached on the spot. The epoch loop therefore
// runs at full speed no matter how many stalled readers are attached.
type broker struct {
	mu     sync.Mutex
	subs   map[*Subscriber]bool
	closed bool
	final  *Event // terminal event, replayed to late subscribers
}

func newBroker() *broker {
	return &broker{subs: make(map[*Subscriber]bool)}
}

// subscribe attaches a new stream with the given buffer depth. If the
// job already finished, the terminal event is delivered and the channel
// closed immediately.
func (b *broker) subscribe(buf int) *Subscriber {
	if buf < 1 {
		buf = 1
	}
	sub := &Subscriber{C: make(chan Event, buf)}
	sub.broker = b
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		if b.final != nil {
			sub.C <- *b.final
		}
		close(sub.C)
		return sub
	}
	b.subs[sub] = true
	return sub
}

func (b *broker) unsubscribe(sub *Subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.subs[sub] {
		delete(b.subs, sub)
		close(sub.C)
	}
}

// publish delivers ev to every subscriber without ever blocking.
func (b *broker) publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for sub := range b.subs {
		select {
		case sub.C <- ev:
		default:
			if ev.conflatable {
				continue // reader will catch up from a later event
			}
			// Stalled on a must-deliver event: cut the reader off.
			delete(b.subs, sub)
			close(sub.C)
		}
	}
}

// closeWith publishes the terminal event, retains it for late
// subscribers, and closes every remaining stream.
func (b *broker) closeWith(final Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.final = &final
	for sub := range b.subs {
		select {
		case sub.C <- final:
		default: // a stalled reader misses the terminal event
		}
		delete(b.subs, sub)
		close(sub.C)
	}
}
