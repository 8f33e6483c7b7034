package guard

import (
	"errors"
	"strings"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", Error, true},
		{"error", Error, true},
		{"ERROR", Error, true},
		{"panic", Panic, true},
		{"log", LogAndContinue, true},
		{"continue", LogAndContinue, true},
		{"log-and-continue", LogAndContinue, true},
		{" error ", Error, true},
		{"explode", Error, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParsePolicy(%q) accepted", c.in)
		}
	}
}

func TestPolicyString(t *testing.T) {
	for _, c := range []struct {
		p    Policy
		want string
	}{{Error, "error"}, {Panic, "panic"}, {LogAndContinue, "log"}} {
		if c.p.String() != c.want {
			t.Errorf("%d.String() = %q, want %q", c.p, c.p.String(), c.want)
		}
	}
}

func TestErrorPolicyReturnsViolationError(t *testing.T) {
	c := New(Error)
	err := c.Violatef("power.finite", "chip power is %v", "NaN")
	if err == nil {
		t.Fatal("violation under Error policy returned nil")
	}
	var ve *ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("error %T is not a *ViolationError", err)
	}
	if ve.V.Invariant != "power.finite" || !strings.Contains(ve.V.Detail, "NaN") {
		t.Errorf("violation carries wrong content: %+v", ve.V)
	}
	if !strings.Contains(err.Error(), "power.finite") {
		t.Errorf("error text misses invariant name: %v", err)
	}
}

func TestPanicPolicy(t *testing.T) {
	c := New(Panic)
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Panic policy did not panic")
		}
		if ve, ok := v.(*ViolationError); !ok || ve.V.Invariant != "clock.monotonic" {
			t.Errorf("panicked with %v", v)
		}
	}()
	c.Violatef("clock.monotonic", "time went backwards")
}

func TestLogAndContinueCountsAndLogs(t *testing.T) {
	c := New(LogAndContinue)
	var buf strings.Builder
	c.SetLog(&buf)
	for i := 0; i < 3; i++ {
		if err := c.Violatef("thermal.bounds", "core %d at 5000K", i); err != nil {
			t.Fatalf("LogAndContinue returned error: %v", err)
		}
	}
	if err := c.Violatef("power.finite", "NaN"); err != nil {
		t.Fatalf("LogAndContinue returned error: %v", err)
	}
	if c.Violations() != 4 {
		t.Errorf("Violations() = %d, want 4", c.Violations())
	}
	counts := c.Counts()
	if counts["thermal.bounds"] != 3 || counts["power.finite"] != 1 {
		t.Errorf("Counts() = %v", counts)
	}
	if !strings.Contains(buf.String(), "core 0 at 5000K") {
		t.Errorf("log output missing detail: %q", buf.String())
	}
	sum := c.Summary()
	if !strings.Contains(sum, "thermal.bounds=3") || !strings.Contains(sum, "power.finite=1") {
		t.Errorf("Summary() = %q", sum)
	}
}

func TestSummaryEmptyWhenClean(t *testing.T) {
	if s := New(Error).Summary(); s != "" {
		t.Errorf("clean checker summary %q, want empty", s)
	}
}

func TestRecordIsBounded(t *testing.T) {
	c := New(LogAndContinue)
	c.SetLog(nil)
	for i := 0; i < MaxRecorded+10; i++ {
		c.Violatef("metrics.finite", "sample %d", i)
	}
	rec, dropped := c.Record()
	if len(rec) != MaxRecorded {
		t.Errorf("record holds %d entries, want bound %d", len(rec), MaxRecorded)
	}
	if dropped != 10 {
		t.Errorf("dropped = %d, want 10", dropped)
	}
	if c.Violations() != MaxRecorded+10 {
		t.Errorf("counter lost violations: %d", c.Violations())
	}
	// The returned record is a copy: mutating it must not affect the
	// checker's state.
	rec[0].Detail = "mutated"
	rec2, _ := c.Record()
	if rec2[0].Detail == "mutated" {
		t.Error("Record returned shared state")
	}
}

func TestCheckerConcurrentUse(t *testing.T) {
	c := New(LogAndContinue)
	c.SetLog(nil)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				c.Violatef("race", "hit")
				c.Violations()
				c.Summary()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.Counts()["race"] != 800 {
		t.Errorf("lost violations under concurrency: %v", c.Counts())
	}
}
