package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"potsim/internal/sim"
)

func TestDaemonPlanIsDeterministicPerSeed(t *testing.T) {
	a := daemonPlan(7, 12*time.Second, 12, daemonHorizonMS)
	b := daemonPlan(7, 12*time.Second, 12, daemonHorizonMS)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed planned different submissions")
	}
	if reflect.DeepEqual(a, daemonPlan(8, 12*time.Second, 12, daemonHorizonMS)) {
		t.Fatal("different seeds planned the same submissions")
	}
}

func TestDaemonPlanOffersTheSameLoadForEverySeed(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		plan := daemonPlan(seed, 12*time.Second, 12, daemonHorizonMS)
		if len(plan) != 144 {
			t.Fatalf("seed %d: %d submissions, want 144", seed, len(plan))
		}
		bodies := map[string]bool{}
		fresh := 0
		for i, s := range plan {
			if i > 0 && s.due < plan[i-1].due {
				t.Fatalf("seed %d: due times out of order at %d", seed, i)
			}
			if s.due < 0 || s.due >= 12*time.Second {
				t.Fatalf("seed %d: due time %v outside the window", seed, s.due)
			}
			if s.ref < 0 {
				fresh++
				if s.horizon != daemonHorizonMS*sim.Millisecond {
					t.Fatalf("seed %d: fresh submission %d simulates %v", seed, i, s.horizon)
				}
				if bodies[string(s.body)] {
					t.Fatalf("seed %d: fresh submission %d repeats a spec", seed, i)
				}
				bodies[string(s.body)] = true
				continue
			}
			if s.ref >= i || plan[s.ref].ref >= 0 || !bytes.Equal(s.body, plan[s.ref].body) {
				t.Fatalf("seed %d: submission %d does not resubmit an earlier fresh spec", seed, i)
			}
		}
		if fresh != 86 {
			t.Errorf("seed %d: %d fresh submissions, want 86", seed, fresh)
		}
	}
}

func TestNearRefTakesTheMedianOfTheFiveNearestSamples(t *testing.T) {
	ms := time.Millisecond
	at := []time.Duration{0, 100 * ms, 200 * ms, 300 * ms, 400 * ms, 500 * ms, 600 * ms, 700 * ms}
	refs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, c := range []struct {
		t    time.Duration
		want float64
	}{
		{0, 3},         // clamped to the first five
		{350 * ms, 5},  // centred on the first at or after it (400 ms)
		{time.Hour, 6}, // clamped to the last five
	} {
		if got := nearRef(at, refs, c.t); got != c.want {
			t.Errorf("nearRef(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if got := nearRef(at[:2], refs[:2], 50*ms); got != 1.5 {
		t.Errorf("with two samples: %v, want their median 1.5", got)
	}
}

// fakeClock advances only when the open loop sleeps or a send works.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }
func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

func TestOpenLoopTimesFromTheDueTimeAndCountsLateness(t *testing.T) {
	c := &fakeClock{}
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond}
	// The second request stalls for 35ms; it delays the third, and the
	// fourth is due after the stall has cleared.
	work := []time.Duration{time.Millisecond, 35 * time.Millisecond, time.Millisecond, time.Millisecond}
	latency := make([]time.Duration, len(due))
	late := openLoop(c, due, func(i int) {
		c.t += work[i]
		latency[i] = c.now() - due[i]
	})
	wantLate := []time.Duration{0, 0, 25 * time.Millisecond, 0}
	wantLatency := []time.Duration{time.Millisecond, 35 * time.Millisecond, 26 * time.Millisecond, time.Millisecond}
	if !reflect.DeepEqual(late, wantLate) {
		t.Errorf("lateness %v, want %v", late, wantLate)
	}
	if !reflect.DeepEqual(latency, wantLatency) {
		t.Errorf("latency %v, want %v", latency, wantLatency)
	}
}
