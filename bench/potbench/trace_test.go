package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "run", Start: 0, End: 100},
		// Two overlapping children cover [10, 60); a third sticks out of
		// the parent and only [90, 100) of it counts.
		{Trace: 1, ID: 2, Parent: 1, Name: "cell", Start: 10, End: 50},
		{Trace: 1, ID: 3, Parent: 1, Name: "cell", Start: 30, End: 60},
		{Trace: 1, ID: 4, Parent: 1, Name: "cell", Start: 90, End: 120},
		// A grandchild is subtracted from its parent only.
		{Trace: 1, ID: 5, Parent: 2, Name: "epoch", Start: 20, End: 25},
	}
	st := selfTimes(spans)
	want := map[string]selfTime{
		"run":   {Count: 1, Self: 100 - 50 - 10},
		"cell":  {Count: 3, Self: (40 - 5) + 30 + 30},
		"epoch": {Count: 1, Self: 5},
	}
	for name, w := range want {
		if got := st[name]; got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
}

func TestTracerRecordsParentsAndNilIsOff(t *testing.T) {
	var off *tracer
	sp := off.start(0, 0, "x")
	sp.child("y").end()
	sp.record("z", time.Now(), time.Now())
	sp.end()
	if off.snapshot() != nil || off.overhead() != 0 {
		t.Fatal("a nil tracer recorded something")
	}

	tr := newTracer()
	root := tr.start(0, 0, "root")
	kid := root.child("kid")
	kid.end()
	t0 := time.Now()
	root.record("edge", t0, t0.Add(time.Millisecond))
	root.end()
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r := byName["root"]
	if r.Parent != 0 || r.Trace != r.ID {
		t.Errorf("root span %+v should start its own trace", r)
	}
	for _, name := range []string{"kid", "edge"} {
		if s := byName[name]; s.Parent != r.ID || s.Trace != r.Trace {
			t.Errorf("%s span %+v should be a child of %+v", name, s, r)
		}
	}
	if got := byName["edge"].End - byName["edge"].Start; got != int64(time.Millisecond) {
		t.Errorf("recorded span lasts %dns, want 1ms", got)
	}
}
