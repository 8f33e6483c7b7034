package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"potsim/internal/sim"
)

func TestLibraryGraphsValid(t *testing.T) {
	lib := Library()
	if len(lib) != 6 {
		t.Fatalf("library has %d graphs, want 6", len(lib))
	}
	sizes := map[string]int{"vopd": 16, "mpeg4": 12, "mwd": 12, "pip": 8,
		"263enc": 8, "263dec": 6}
	for _, g := range lib {
		if err := g.Validate(); err != nil {
			t.Errorf("graph %s invalid: %v", g.Name, err)
		}
		if want := sizes[g.Name]; g.Size() != want {
			t.Errorf("graph %s has %d tasks, want %d", g.Name, g.Size(), want)
		}
		if g.TotalWork() <= 0 {
			t.Errorf("graph %s has no work", g.Name)
		}
		cp := g.CriticalPathCycles()
		if cp <= 0 || cp > g.TotalWork() {
			t.Errorf("graph %s critical path %d outside (0, total %d]", g.Name, cp, g.TotalWork())
		}
	}
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	for _, g := range Library() {
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		pos := make(map[int]int, len(order))
		for i, id := range order {
			pos[id] = i
		}
		for _, task := range g.Tasks {
			for _, d := range task.Deps {
				if pos[d] >= pos[task.ID] {
					t.Errorf("%s: dep %d not before task %d", g.Name, d, task.ID)
				}
			}
		}
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	g := &Graph{Name: "cyc", Iterations: 1, Tasks: []Task{
		{ID: 0, WorkCycles: 1, DemandHz: 1, Activity: 1, Deps: []int{1}},
		{ID: 1, WorkCycles: 1, DemandHz: 1, Activity: 1, Deps: []int{0}},
	}}
	if g.Validate() == nil {
		t.Error("cycle accepted")
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	mk := func(mut func(*Graph)) *Graph {
		g := &Graph{Name: "x", Iterations: 1, Tasks: []Task{
			{ID: 0, WorkCycles: 10, DemandHz: 1e9, Activity: 0.5},
			{ID: 1, WorkCycles: 10, DemandHz: 1e9, Activity: 0.5, Deps: []int{0}},
		}}
		mut(g)
		return g
	}
	cases := map[string]func(*Graph){
		"empty":        func(g *Graph) { g.Tasks = nil },
		"sparse ids":   func(g *Graph) { g.Tasks[1].ID = 5 },
		"zero work":    func(g *Graph) { g.Tasks[0].WorkCycles = 0 },
		"zero demand":  func(g *Graph) { g.Tasks[0].DemandHz = 0 },
		"zero act":     func(g *Graph) { g.Tasks[0].Activity = 0 },
		"unknown dep":  func(g *Graph) { g.Tasks[1].Deps = []int{9} },
		"self dep":     func(g *Graph) { g.Tasks[1].Deps = []int{1} },
		"unknown comm": func(g *Graph) { g.Tasks[0].CommFlits = map[int]int{9: 4} },
	}
	for name, mut := range cases {
		if mk(mut).Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCriticalPathLinearChain(t *testing.T) {
	g := &Graph{Name: "chain", Iterations: 1, Tasks: []Task{
		{ID: 0, WorkCycles: 10, DemandHz: 1, Activity: 1},
		{ID: 1, WorkCycles: 20, DemandHz: 1, Activity: 1, Deps: []int{0}},
		{ID: 2, WorkCycles: 30, DemandHz: 1, Activity: 1, Deps: []int{1}},
	}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if cp := g.CriticalPathCycles(); cp != 60 {
		t.Errorf("critical path = %d, want 60", cp)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	g := &Graph{Name: "diamond", Iterations: 1, Tasks: []Task{
		{ID: 0, WorkCycles: 10, DemandHz: 1, Activity: 1},
		{ID: 1, WorkCycles: 50, DemandHz: 1, Activity: 1, Deps: []int{0}},
		{ID: 2, WorkCycles: 20, DemandHz: 1, Activity: 1, Deps: []int{0}},
		{ID: 3, WorkCycles: 10, DemandHz: 1, Activity: 1, Deps: []int{1, 2}},
	}}
	if cp := g.CriticalPathCycles(); cp != 70 { // 10+50+10
		t.Errorf("critical path = %d, want 70", cp)
	}
}

func TestRandomGraphsValid(t *testing.T) {
	cfg := DefaultRandomConfig()
	rng := sim.NewRNG(13).Stream("gen")
	for i := 0; i < 200; i++ {
		g, err := Random(cfg, i, rng)
		if err != nil {
			t.Fatal(err)
		}
		if g.Size() < cfg.MinTasks || g.Size() > cfg.MaxTasks {
			t.Fatalf("graph size %d outside [%d,%d]", g.Size(), cfg.MinTasks, cfg.MaxTasks)
		}
		// Validate() already ran inside Random; re-check anyway.
		if err := g.Validate(); err != nil {
			t.Fatalf("generated graph invalid: %v", err)
		}
	}
}

func TestRandomGraphConnectivity(t *testing.T) {
	// Every non-root task must have at least one dependency.
	cfg := DefaultRandomConfig()
	rng := sim.NewRNG(17).Stream("gen")
	g, err := Random(cfg, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := g.TopoOrder()
	roots := 0
	for _, id := range order {
		if len(g.Tasks[id].Deps) == 0 {
			roots++
		}
	}
	if roots == 0 || roots > cfg.MaxWidth {
		t.Errorf("root count %d outside (0, MaxWidth]", roots)
	}
}

func TestRandomConfigValidation(t *testing.T) {
	bad := DefaultRandomConfig()
	bad.MinTasks = 0
	if _, err := Random(bad, 0, sim.NewRNG(1).Stream("x")); err == nil {
		t.Error("MinTasks=0 accepted")
	}
	bad = DefaultRandomConfig()
	bad.EdgeProb = 2
	if _, err := Random(bad, 0, sim.NewRNG(1).Stream("x")); err == nil {
		t.Error("EdgeProb=2 accepted")
	}
	bad = DefaultRandomConfig()
	bad.MaxWork = bad.MinWork - 1
	if _, err := Random(bad, 0, sim.NewRNG(1).Stream("x")); err == nil {
		t.Error("inverted work range accepted")
	}
}

func TestSourcePoissonArrivals(t *testing.T) {
	rng := sim.NewRNG(21).Stream("arr")
	src, err := NewSource(DefaultMix(), 10*sim.Millisecond, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	var last sim.Time
	var sum sim.Time
	for i := 0; i < n; i++ {
		a, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if a.At <= last {
			t.Fatalf("arrival %d not strictly later: %v after %v", i, a.At, last)
		}
		if a.Seq != i {
			t.Fatalf("sequence broken: %d at position %d", a.Seq, i)
		}
		if err := a.Graph.Validate(); err != nil {
			t.Fatalf("arrival graph invalid: %v", err)
		}
		sum += a.At - last
		last = a.At
	}
	mean := sum / n
	if mean < 9*sim.Millisecond || mean > 11*sim.Millisecond {
		t.Errorf("mean interarrival = %v, want ~10ms", mean)
	}
}

func TestSourceMixesGraphKinds(t *testing.T) {
	rng := sim.NewRNG(23).Stream("arr")
	src, err := NewSource(DefaultMix(), sim.Millisecond, rng)
	if err != nil {
		t.Fatal(err)
	}
	embedded, random := 0, 0
	for i := 0; i < 500; i++ {
		a, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch a.Graph.Name {
		case "vopd", "mpeg4", "mwd", "pip", "263enc", "263dec":
			embedded++
		default:
			random++
		}
	}
	if embedded < 150 || random < 150 {
		t.Errorf("mix skewed: embedded=%d random=%d", embedded, random)
	}
}

func TestSourceValidation(t *testing.T) {
	rng := sim.NewRNG(1).Stream("x")
	if _, err := NewSource(DefaultMix(), 0, rng); err == nil {
		t.Error("zero interarrival accepted")
	}
	if _, err := NewSource(DefaultMix(), sim.Second, nil); err == nil {
		t.Error("nil rng accepted")
	}
	bad := DefaultMix()
	bad.EmbeddedShare = 1.5
	if _, err := NewSource(bad, sim.Second, rng); err == nil {
		t.Error("EmbeddedShare > 1 accepted")
	}
}

func TestSourceDeterminism(t *testing.T) {
	run := func() []sim.Time {
		src, err := NewSource(DefaultMix(), 5*sim.Millisecond, sim.NewRNG(77).Stream("arr"))
		if err != nil {
			t.Fatal(err)
		}
		var at []sim.Time
		for i := 0; i < 100; i++ {
			a, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			at = append(at, a.At)
		}
		return at
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival stream diverges at %d", i)
		}
	}
}

// Property: random graphs are always acyclic and dense-ID'd regardless of
// generator seed.
func TestRandomGraphProperty(t *testing.T) {
	cfg := DefaultRandomConfig()
	prop := func(seed uint64) bool {
		g, err := Random(cfg, 0, sim.NewRNG(seed).Stream("g"))
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	src, err := NewSource(DefaultMix(), 2*sim.Millisecond, sim.NewRNG(5).Stream("arr"))
	if err != nil {
		t.Fatal(err)
	}
	cap0 := NewCapture(src)
	for i := 0; i < 50; i++ {
		if _, err := cap0.Next(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, cap0.Entries()); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 50 {
		t.Fatalf("round trip lost entries: %d", len(entries))
	}
	rp := NewReplay(entries)
	if rp.Remaining() != 50 {
		t.Errorf("Remaining = %d", rp.Remaining())
	}
	for i, want := range cap0.Entries() {
		a, err := rp.Next()
		if err != nil {
			t.Fatal(err)
		}
		if int64(a.At) != want.AtNs {
			t.Fatalf("entry %d at %v, want %d", i, a.At, want.AtNs)
		}
		if a.Graph.Name != want.Graph.Name || a.Graph.Size() != want.Graph.Size() {
			t.Fatalf("entry %d graph mismatch", i)
		}
	}
	if _, err := rp.Next(); err == nil {
		t.Error("exhausted replay should error")
	}
	if rp.PeekNext() < sim.Time(1<<61) {
		t.Error("exhausted replay PeekNext should be beyond any horizon")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"bad json":      "{nope\n",
		"missing graph": `{"at_ns": 5}` + "\n",
		"bad graph":     `{"at_ns": 5, "graph": {"Name":"x","Iterations":1,"Tasks":[]}}` + "\n",
		"time regress":  `{"at_ns": 5, "graph": {"Name":"a","Iterations":1,"Tasks":[{"ID":0,"WorkCycles":1,"DemandHz":1,"Activity":1}]}}` + "\n" + `{"at_ns": 3, "graph": {"Name":"a","Iterations":1,"Tasks":[{"ID":0,"WorkCycles":1,"DemandHz":1,"Activity":1}]}}` + "\n",
	}
	for name, blob := range cases {
		if _, err := ReadTrace(strings.NewReader(blob)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Blank lines are tolerated.
	if entries, err := ReadTrace(strings.NewReader("\n\n")); err != nil || len(entries) != 0 {
		t.Error("blank-line trace mishandled")
	}
}

func TestBurstySourceModulatesRate(t *testing.T) {
	burst := Burstiness{Enabled: true, OnMean: 20 * sim.Millisecond,
		OffMean: 20 * sim.Millisecond, QuietFactor: 10}
	src, err := NewBurstySource(DefaultMix(), sim.Millisecond, burst, sim.NewRNG(9).Stream("b"))
	if err != nil {
		t.Fatal(err)
	}
	// Collect interarrival gaps; a 2-phase process with a 10x rate gap
	// has a much higher coefficient of variation than Poisson (CV=1).
	var gaps []float64
	last := sim.Time(0)
	for i := 0; i < 3000; i++ {
		a, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		gaps = append(gaps, (a.At - last).Seconds())
		last = a.At
	}
	mean, sq := 0.0, 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sq/float64(len(gaps))) / mean
	if cv < 1.3 {
		t.Errorf("bursty CV = %v, want clearly above Poisson's 1.0", cv)
	}
	// Plain Poisson control.
	plain, err := NewSource(DefaultMix(), sim.Millisecond, sim.NewRNG(9).Stream("p"))
	if err != nil {
		t.Fatal(err)
	}
	gaps = gaps[:0]
	last = 0
	for i := 0; i < 3000; i++ {
		a, _ := plain.Next()
		gaps = append(gaps, (a.At - last).Seconds())
		last = a.At
	}
	mean, sq = 0.0, 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	if cvPlain := math.Sqrt(sq/float64(len(gaps))) / mean; cvPlain > 1.15 {
		t.Errorf("Poisson CV = %v, want ~1", cvPlain)
	}
}

func TestBurstinessValidation(t *testing.T) {
	bad := Burstiness{Enabled: true, OnMean: 0, OffMean: sim.Second, QuietFactor: 2}
	if bad.Validate() == nil {
		t.Error("zero OnMean accepted")
	}
	bad = Burstiness{Enabled: true, OnMean: sim.Second, OffMean: sim.Second, QuietFactor: 0.5}
	if bad.Validate() == nil {
		t.Error("QuietFactor < 1 accepted")
	}
	if (Burstiness{}).Validate() != nil {
		t.Error("disabled burstiness should validate")
	}
}

// TotalWork returns the sum of task work cycles.
func (g *Graph) TotalWork() int64 {
	var sum int64
	for _, t := range g.Tasks {
		sum += t.WorkCycles
	}
	return sum
}

// CriticalPathCycles returns the longest dependency chain in work cycles
// (communication excluded), a lower bound on makespan at full speed. The
// tests bound a valid graph's critical path by its total work.
func (g *Graph) CriticalPathCycles() int64 {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	finish := make([]int64, len(g.Tasks))
	var best int64
	for _, id := range order {
		t := g.Tasks[id]
		var start int64
		for _, d := range t.Deps {
			if finish[d] > start {
				start = finish[d]
			}
		}
		finish[id] = start + t.WorkCycles
		if finish[id] > best {
			best = finish[id]
		}
	}
	return best
}
