package service

import (
	"testing"
	"time"
)

// subscribed reports whether the broker still delivers to sub.
func subscribed(b *broker, sub *Subscriber) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.subs[sub]
	return ok
}

func progressEv(n int64) Event {
	return Event{Type: EventProgress, JobID: "j", Epochs: n, conflatable: true}
}

// TestBrokerConflatesProgressForSlowReaders: a subscriber that stops
// reading loses progress events (they conflate) but keeps its stream.
func TestBrokerConflatesProgressForSlowReaders(t *testing.T) {
	b := newBroker()
	sub := b.subscribe(2)
	for i := int64(1); i <= 50; i++ {
		b.publish(progressEv(i)) // must never block
	}
	if !subscribed(b, sub) {
		t.Fatal("subscriber dropped over conflatable events")
	}
	// The buffer holds the 2 oldest undelivered events; the other 48
	// were conflated away.
	got := 0
	for {
		select {
		case _, ok := <-sub.C:
			if !ok {
				t.Fatal("channel closed unexpectedly")
			}
			got++
			continue
		default:
		}
		break
	}
	if got != 2 {
		t.Fatalf("buffered events: %d, want 2", got)
	}
	// Still attached: a lifecycle event arrives fine now.
	b.publish(Event{Type: EventState, JobID: "j", State: StateRunning})
	select {
	case ev := <-sub.C:
		if ev.State != StateRunning {
			t.Fatalf("got %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("lifecycle event never arrived")
	}
	sub.Close()
}

// TestBrokerDropsReaderStalledOnLifecycleEvent: a subscriber whose
// buffer is full when a must-deliver event arrives is cut off — the
// publisher (the simulation goroutine) never waits for a socket.
func TestBrokerDropsReaderStalledOnLifecycleEvent(t *testing.T) {
	b := newBroker()
	stalled := b.subscribe(1)
	healthy := b.subscribe(4)
	b.publish(progressEv(1)) // fills stalled's buffer
	done := make(chan struct{})
	go func() {
		b.publish(Event{Type: EventState, JobID: "j", State: StateDone})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("publish blocked on a stalled subscriber")
	}
	if subscribed(b, stalled) {
		t.Fatal("stalled subscriber still attached")
	}
	if _, open := <-stalled.C; !open {
		// First buffered event is still delivered; then the channel
		// must be closed.
		t.Fatal("buffered event lost on drop")
	}
	if _, open := <-stalled.C; open {
		t.Fatal("stalled subscriber's channel left open")
	}
	// The healthy subscriber is unaffected.
	for {
		ev, open := <-healthy.C
		if !open {
			t.Fatal("healthy subscriber dropped")
		}
		if ev.Type == EventState && ev.State == StateDone {
			break
		}
	}
	healthy.Close()
}

// TestBrokerReplaysTerminalEventToLateSubscribers.
func TestBrokerReplaysTerminalEventToLateSubscribers(t *testing.T) {
	b := newBroker()
	b.closeWith(Event{Type: EventState, JobID: "j", State: StateFailed, Error: "boom"})
	sub := b.subscribe(1)
	ev, open := <-sub.C
	if !open || ev.State != StateFailed || ev.Error != "boom" {
		t.Fatalf("late subscriber got open=%v %+v", open, ev)
	}
	if _, open := <-sub.C; open {
		t.Fatal("late subscriber's channel left open")
	}
	// Publishing after close is a no-op, not a panic.
	b.publish(progressEv(1))
	b.closeWith(Event{Type: EventState, JobID: "j", State: StateDone})
}
