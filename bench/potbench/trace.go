package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// unit of work (a sim run, a campaign, a daemon submission, an
// experiment) share a trace id; parent is 0 for a root span.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op, so untraced runs pay
// one nil check per call site.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	next  int64
	cost  time.Duration // time spent storing spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t                 *tracer
	trace, id, parent int64
	name              string
	start             time.Time
}

// start opens a span. A zero trace starts a new trace rooted at it.
func (t *tracer) start(trace, parent int64, name string) *open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	if trace == 0 {
		trace = id
	}
	return &open{t: t, trace: trace, id: id, parent: parent, name: name, start: time.Now()}
}

// child opens a span under o in o's trace.
func (o *open) child(name string) *open {
	if o == nil {
		return nil
	}
	return o.t.start(o.trace, o.id, name)
}

// end closes the span now.
func (o *open) end() {
	if o != nil {
		o.t.add(o.trace, o.id, o.parent, o.name, o.start, time.Now())
	}
}

// record stores a span whose edges were observed after the fact (stage
// boundaries read from progress output, job state changes seen by a
// poller) under parent o.
func (o *open) record(name string, start, end time.Time) {
	if o == nil {
		return
	}
	o.t.mu.Lock()
	o.t.next++
	id := o.t.next
	o.t.mu.Unlock()
	o.t.add(o.trace, id, o.id, name, start, end)
}

func (t *tracer) add(trace, id, parent int64, name string, start, end time.Time) {
	t0 := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.cost += time.Since(t0)
	t.mu.Unlock()
}

// overhead is the time spent storing spans so far.
func (t *tracer) overhead() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cost
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as a JSON array at path.
func (t *tracer) write(path string) error {
	blob, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// selfTime is the summed self time and count of the spans of one name.
type selfTime struct {
	Count int
	Self  time.Duration
}

// selfTimes returns, per span name, the summed self time — each span's
// duration minus the part of it that its child spans cover.
func selfTimes(spans []span) map[string]selfTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]selfTime)
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.Self += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's, so overlapping children (concurrent cells)
// are not subtracted twice.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		if a, b := max(k.Start, parent.Start), min(k.End, parent.End); b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	end := parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(total)
}
