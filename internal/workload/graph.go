// Package workload models the dynamic workload of the manycore: directed
// acyclic task graphs (TGFF-style random graphs plus the classic embedded
// multimedia graphs used throughout this paper family), and the Poisson
// arrival process that injects them at runtime.
package workload

import (
	"fmt"
	"sort"

	"potsim/internal/sim"
)

// Task is one node of a task graph. Each task occupies one core for
// WorkCycles clock cycles once all of its dependencies have completed and
// their output data has arrived over the NoC.
type Task struct {
	ID         int
	Name       string
	WorkCycles int64   // execution length at the granted clock
	DemandHz   float64 // frequency the task wants for full-speed execution
	Activity   float64 // switching activity while executing, [0,1+]
	// MemIntensity is the fraction of the task's cycles that are memory
	// stalls at an uncontended controller, in [0,1); controller
	// contention stretches exactly this fraction.
	MemIntensity float64

	// Deps lists predecessor task IDs within the same graph.
	Deps []int
	// CommFlits[d] is the message size in flits sent to successor d when
	// this task completes.
	CommFlits map[int]int

	// succs caches the CommFlits keys in ascending order. Validate fills
	// it so the runtime never re-sorts the map on the fire path; unexported
	// so JSON snapshots are unchanged (Restore re-validates and refills).
	succs []int
}

// Successors returns the task's CommFlits destinations in ascending ID
// order. On a validated graph this is the precomputed cache; otherwise it
// sorts a fresh slice, so callers see the same order either way.
func (t *Task) Successors() []int {
	if t.succs == nil && len(t.CommFlits) > 0 {
		return sortedSuccessors(t)
	}
	return t.succs
}

// sortedSuccessors builds the ascending successor order from scratch.
func sortedSuccessors(t *Task) []int {
	ids := make([]int, 0, len(t.CommFlits))
	for id := range t.CommFlits {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Graph is an application: a DAG of tasks executed in streaming fashion.
// The application processes Iterations frames: a task starts its frame k
// as soon as its predecessors have produced frame k, so after the
// pipeline fills, every task of the graph runs concurrently — the
// execution model of the multimedia workloads this paper family evaluates
// on, and the reason a mapped region draws real power.
type Graph struct {
	Name  string
	Tasks []Task
	// Iterations is the number of frames each task processes (>= 1).
	Iterations int
	// Class is the application's real-time criticality.
	Class Class
}

// Size returns the task count, which is also the number of cores the
// application needs (one task per core, the paper family's model).
func (g *Graph) Size() int { return len(g.Tasks) }

// Validate checks IDs are dense, dependencies exist, edges are
// consistent, and the graph is acyclic.
func (g *Graph) Validate() error {
	if len(g.Tasks) == 0 {
		return fmt.Errorf("workload: graph %q has no tasks", g.Name)
	}
	if g.Iterations < 1 {
		return fmt.Errorf("workload: graph %q needs Iterations >= 1, got %d", g.Name, g.Iterations)
	}
	for i, t := range g.Tasks {
		if t.ID != i {
			return fmt.Errorf("workload: graph %q task %d has ID %d (must be dense)", g.Name, i, t.ID)
		}
		if t.WorkCycles <= 0 {
			return fmt.Errorf("workload: graph %q task %d has non-positive work", g.Name, i)
		}
		if t.DemandHz <= 0 {
			return fmt.Errorf("workload: graph %q task %d has non-positive demand", g.Name, i)
		}
		if t.Activity <= 0 {
			return fmt.Errorf("workload: graph %q task %d has non-positive activity", g.Name, i)
		}
		if t.MemIntensity < 0 || t.MemIntensity >= 1 {
			return fmt.Errorf("workload: graph %q task %d memory intensity outside [0,1)", g.Name, i)
		}
		for _, d := range t.Deps {
			if d < 0 || d >= len(g.Tasks) {
				return fmt.Errorf("workload: graph %q task %d depends on unknown task %d", g.Name, i, d)
			}
			if d == i {
				return fmt.Errorf("workload: graph %q task %d depends on itself", g.Name, i)
			}
		}
		// Cache the sorted successor order so the per-fire hot path never
		// sorts the map again (see Task.Successors) — and validate in
		// that same order, so a graph with several bad destinations
		// always reports the lowest one instead of a random pick.
		g.Tasks[i].succs = sortedSuccessors(&g.Tasks[i])
		for _, dst := range g.Tasks[i].succs {
			if dst < 0 || dst >= len(g.Tasks) {
				return fmt.Errorf("workload: graph %q task %d sends to unknown task %d", g.Name, i, dst)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a topological ordering or an error if the graph has a
// cycle. The order is deterministic (Kahn's algorithm with ascending IDs).
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.Tasks)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, t := range g.Tasks {
		for _, d := range t.Deps {
			succ[d] = append(succ[d], t.ID)
			indeg[t.ID]++
		}
	}
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	var order []int
	for len(ready) > 0 {
		// Pop the smallest ID for determinism.
		min := 0
		for i, v := range ready {
			if v < ready[min] {
				min = i
			}
		}
		id := ready[min]
		ready = append(ready[:min], ready[min+1:]...)
		order = append(order, id)
		for _, s := range succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("workload: graph %q contains a cycle", g.Name)
	}
	return order, nil
}

// Arrival is one application instance entering the system.
type Arrival struct {
	Seq   int
	Graph *Graph
	At    sim.Time
}

// Class is an application's real-time criticality, per the dark-silicon
// power manager substrate (ICCD'14): under a binding power cap the
// governor throttles best-effort work first, soft real-time next, and
// protects hard real-time demand as long as possible.
type Class int

// Application classes in decreasing priority.
const (
	HardRT Class = iota
	SoftRT
	BestEffort
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case HardRT:
		return "hard-rt"
	case SoftRT:
		return "soft-rt"
	case BestEffort:
		return "best-effort"
	default:
		return "class(?)"
	}
}
