package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(30*Microsecond, func(*Engine) { order = append(order, 3) })
	e.After(10*Microsecond, func(*Engine) { order = append(order, 1) })
	e.After(20*Microsecond, func(*Engine) { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %d, want %d", i, order[i], want[i])
		}
	}
	if e.Now() != 30*Microsecond {
		t.Errorf("Now() = %v, want 30us", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5*Microsecond, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestEngineSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	e.After(10*Microsecond, func(*Engine) {})
	e.Run()
	if _, err := e.Schedule(5*Microsecond, func(*Engine) {}); err == nil {
		t.Fatal("scheduling in the past succeeded, want error")
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.After(10*Microsecond, func(*Engine) { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel reported failure for a pending event")
	}
	if e.Cancel(id) {
		t.Fatal("double Cancel reported success")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.After(10*Microsecond, func(*Engine) {})
	e.After(500*Microsecond, func(*Engine) {})
	e.RunUntil(100 * Microsecond)
	if e.Now() != 100*Microsecond {
		t.Errorf("Now() = %v, want 100us", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1 (event beyond horizon kept)", e.Pending())
	}
}

func TestEngineStopInsideHandler(t *testing.T) {
	e := NewEngine()
	count := 0
	e.After(Microsecond, func(en *Engine) { count++; en.Stop() })
	e.After(2*Microsecond, func(*Engine) { count++ })
	e.Run()
	if count != 1 {
		t.Errorf("after Stop, fired %d events, want 1", count)
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine()
	ticks := 0
	var cancel func()
	cancel, err := e.EveryClass(0, 10*Microsecond, 0, func(*Engine) {
		ticks++
		if ticks == 5 {
			cancel()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(Second)
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
}

func TestEngineEveryRejectsNonPositivePeriod(t *testing.T) {
	e := NewEngine()
	for _, period := range []Time{0, -Microsecond} {
		if _, err := e.EveryClass(0, period, 0, func(*Engine) {}); err == nil {
			t.Errorf("EveryClass with period %v accepted", period)
		}
	}
}

func TestEngineEveryAlignment(t *testing.T) {
	e := NewEngine()
	var at []Time
	cancel, err := e.EveryClass(5*Microsecond, 10*Microsecond, 0, func(en *Engine) {
		at = append(at, en.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	e.RunUntil(36 * Microsecond)
	want := []Time{5 * Microsecond, 15 * Microsecond, 25 * Microsecond, 35 * Microsecond}
	if len(at) != len(want) {
		t.Fatalf("got %d ticks %v, want %d", len(at), at, len(want))
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var log []Time
		rng := NewRNG(7).Stream("det")
		var step Handler
		step = func(en *Engine) {
			log = append(log, en.Now())
			if len(log) < 50 {
				en.After(Time(rng.IntBetween(1, 1000))*Nanosecond, step)
			}
		}
		e.After(0, step)
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of non-negative delays, events fire in
// non-decreasing timestamp order and all of them fire.
func TestEngineFiringOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var stamps []Time
		for _, d := range delays {
			e.After(Time(d)*Nanosecond, func(en *Engine) {
				stamps = append(stamps, en.Now())
			})
		}
		e.Run()
		if len(stamps) != len(delays) {
			return false
		}
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{1500 * Nanosecond, "1.500us"},
		{2500 * Microsecond, "2.500ms"},
		{Second + 500*Millisecond, "1.500000s"},
		{-500 * Nanosecond, "-500ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != Second+500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Errorf("Seconds() = %v, want 0.25", got)
	}
	if got := (3 * Microsecond).Micros(); got != 3 {
		t.Errorf("Micros() = %v, want 3", got)
	}
}

func TestEngineSnapshotRestore(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.After(Time(i)*Millisecond, func(*Engine) {})
	}
	e.RunUntil(10 * Millisecond)
	st := e.Snapshot()
	if st.Now != 10*Millisecond || st.Fired != 5 {
		t.Fatalf("unexpected snapshot %+v", st)
	}
	fresh := NewEngine()
	if err := fresh.Restore(st); err != nil {
		t.Fatal(err)
	}
	if fresh.Now() != e.Now() || fresh.Fired() != e.Fired() {
		t.Fatalf("restore mismatch: %v/%d vs %v/%d", fresh.Now(), fresh.Fired(), e.Now(), e.Fired())
	}
	// Scheduling resumes with the restored sequence counter so tie-break
	// order matches the uninterrupted run.
	if _, err := fresh.Schedule(11*Millisecond, func(*Engine) {}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRestoreRejectsPendingEvents(t *testing.T) {
	e := NewEngine()
	e.After(Millisecond, func(*Engine) {})
	if err := e.Restore(EngineState{Now: Millisecond}); err == nil {
		t.Fatal("Restore accepted an engine with pending events")
	}
	if err := NewEngine().Restore(EngineState{Now: -1}); err == nil {
		t.Fatal("Restore accepted a negative clock")
	}
}

// Classes pin tie order independently of scheduling history: a class-0
// event fires before a class-1 event at the same instant even when the
// class-1 event was scheduled first.
func TestEngineClassOrderingBeatsSeq(t *testing.T) {
	e := NewEngine()
	var order []string
	if _, err := e.ScheduleClass(Millisecond, 1, func(*Engine) { order = append(order, "late-class") }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ScheduleClass(Millisecond, 0, func(*Engine) { order = append(order, "early-class") }); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(Millisecond)
	if len(order) != 2 || order[0] != "early-class" || order[1] != "late-class" {
		t.Fatalf("wrong order %v", order)
	}
}

func TestEngineEveryClassTicksKeepClass(t *testing.T) {
	e := NewEngine()
	var order []string
	// Periodic class-1 ticks at 1ms, 2ms; one-shot class-0 event at 2ms
	// scheduled before the 2ms tick exists. Class must still win.
	cancel, err := e.EveryClass(Millisecond, Millisecond, 1, func(*Engine) { order = append(order, "tick") })
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, err := e.ScheduleClass(2*Millisecond, 0, func(*Engine) { order = append(order, "shot") }); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(2 * Millisecond)
	want := []string{"tick", "shot", "tick"}
	if len(order) != len(want) {
		t.Fatalf("wrong events %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wrong order %v, want %v", order, want)
		}
	}
}
