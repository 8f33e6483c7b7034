// Package mapping implements the runtime application-mapping policies of
// the study: plain FirstFree, contiguous NearestNeighbour, a CoNA-style
// fragmentation-aware selector, and the paper's proposed Test-aware
// Utilization-oriented Mapping (TUM), which additionally steers incoming
// applications away from cores with high test criticality so that the
// online test scheduler gets to them while they are idle.
package mapping

import (
	"fmt"
	"math"
	"sort"

	"potsim/internal/noc"
	"potsim/internal/workload"
)

// CoreView is what a mapper may know about one core at mapping time.
type CoreView struct {
	Free bool
	// Criticality is the current test-criticality of the core (see
	// aging.CriticalityModel); TUM avoids occupying overdue cores.
	Criticality float64
	// Utilization is the smoothed utilization metric of the core; TUM
	// prefers historically colder cores to even out stress.
	Utilization float64
}

// Grid is the mapper's view of the chip.
type Grid struct {
	//potlint:nosnap geometry is configuration; Restore validates the core count
	Width, Height int
	Cores         []CoreView // row-major, index = y*Width + x

	// BFS scratch reused by growRegion so region growing — which runs
	// for every candidate seed, every epoch an application is pending —
	// allocates nothing. visited is a stamped set (visited[i] == stamp
	// means seen this search), sparing a per-search clear; regionA/B
	// double-buffer candidate regions for best-so-far policies.
	stamp   int   //potlint:nosnap BFS scratch; beginSearch re-stamps before every use
	visited []int //potlint:nosnap BFS scratch; beginSearch re-stamps before every use
	queue   []int //potlint:nosnap BFS scratch, rewritten before every use
	regionA []int //potlint:nosnap BFS scratch, rewritten before every use
	regionB []int //potlint:nosnap BFS scratch, rewritten before every use
}

// NewGrid allocates an all-free grid.
func NewGrid(width, height int) *Grid {
	return &Grid{Width: width, Height: height, Cores: make([]CoreView, width*height)}
}

// Index converts a coordinate to a core index.
func (g *Grid) Index(c noc.Coord) int { return c.Y*g.Width + c.X }

// Coord converts a core index to a coordinate.
func (g *Grid) Coord(i int) noc.Coord { return noc.Coord{X: i % g.Width, Y: i / g.Width} }

// neighbours yields the valid mesh neighbours of index i, in fixed
// west/east/north/south order, as a count-bounded array.
func (g *Grid) neighbours(i int) (nb [4]int, n int) {
	c := g.Coord(i)
	if c.X > 0 {
		nb[n] = i - 1
		n++
	}
	if c.X < g.Width-1 {
		nb[n] = i + 1
		n++
	}
	if c.Y > 0 {
		nb[n] = i - g.Width
		n++
	}
	if c.Y < g.Height-1 {
		nb[n] = i + g.Width
		n++
	}
	return nb, n
}

// beginSearch readies the stamped visited set for a fresh BFS.
func (g *Grid) beginSearch() {
	if len(g.visited) != len(g.Cores) {
		g.visited = make([]int, len(g.Cores))
		g.stamp = 0
	}
	g.stamp++
}

// Assignment maps task ID -> core coordinate.
type Assignment []noc.Coord

// Policy selects cores for an incoming application.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Map returns one core per task of g, or ok=false when the
	// application cannot be placed right now.
	Map(g *workload.Graph, grid *Grid) (Assignment, bool)
}

// assignTasks places tasks onto the selected cores: tasks in topological
// order onto cores in selection order, which keeps communicating tasks
// close for BFS-grown regions.
func assignTasks(g *workload.Graph, cores []int, grid *Grid) Assignment {
	order, err := g.TopoOrder()
	if err != nil {
		return nil
	}
	as := make(Assignment, len(g.Tasks))
	for i, taskID := range order {
		as[taskID] = grid.Coord(cores[i])
	}
	return as
}

// FirstFree scans row-major and takes the first free cores, ignoring
// contiguity — the cheap baseline that fragments the chip.
type FirstFree struct{}

// Name implements Policy.
func (FirstFree) Name() string { return "FF" }

// Map implements Policy.
func (FirstFree) Map(g *workload.Graph, grid *Grid) (Assignment, bool) {
	need := g.Size()
	var chosen []int
	for i := range grid.Cores {
		if grid.Cores[i].Free {
			chosen = append(chosen, i)
			if len(chosen) == need {
				return assignTasks(g, chosen, grid), true
			}
		}
	}
	return nil, false
}

// growRegion BFS-expands from seed over free cores until need cores are
// collected, appending them into out (reset to length zero first);
// ok=false if the free region is too small. Ties expand in
// deterministic index order. The grid's scratch buffers back the search
// state, so the returned slice is only valid until the next search that
// reuses out's backing array.
//
//potlint:allocfree
func growRegion(grid *Grid, seed, need int, out []int) ([]int, bool) {
	out = out[:0]
	if !grid.Cores[seed].Free {
		return out, false
	}
	grid.beginSearch()
	grid.visited[seed] = grid.stamp
	queue := append(grid.queue[:0], seed)
	for head := 0; head < len(queue) && len(out) < need; head++ {
		cur := queue[head]
		out = append(out, cur)
		nb, n := grid.neighbours(cur)
		for k := 0; k < n; k++ {
			id := nb[k]
			if grid.visited[id] != grid.stamp && grid.Cores[id].Free {
				grid.visited[id] = grid.stamp
				queue = append(queue, id)
			}
		}
	}
	grid.queue = queue
	return out, len(out) >= need
}

// NearestNeighbour takes the first free core as the seed and BFS-grows a
// contiguous region — the classic contiguous-mapping baseline.
type NearestNeighbour struct{}

// Name implements Policy.
func (NearestNeighbour) Name() string { return "NN" }

// Map implements Policy.
func (NearestNeighbour) Map(g *workload.Graph, grid *Grid) (Assignment, bool) {
	need := g.Size()
	for i := range grid.Cores {
		if !grid.Cores[i].Free {
			continue
		}
		region, ok := growRegion(grid, i, need, grid.regionA)
		grid.regionA = region
		if ok {
			return assignTasks(g, region, grid), true
		}
	}
	return nil, false
}

// CoNA seeds the region at the free core with the most free neighbours,
// reducing fragmentation (in the spirit of CoNA/SHiC region selection).
type CoNA struct{}

// Name implements Policy.
func (CoNA) Name() string { return "CoNA" }

// Map implements Policy.
func (CoNA) Map(g *workload.Graph, grid *Grid) (Assignment, bool) {
	need := g.Size()
	type cand struct{ idx, freeNb int }
	var cands []cand
	for i := range grid.Cores {
		if !grid.Cores[i].Free {
			continue
		}
		fn := 0
		nb, n := grid.neighbours(i)
		for k := 0; k < n; k++ {
			if grid.Cores[nb[k]].Free {
				fn++
			}
		}
		cands = append(cands, cand{i, fn})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].freeNb != cands[b].freeNb {
			return cands[a].freeNb > cands[b].freeNb
		}
		return cands[a].idx < cands[b].idx
	})
	for _, c := range cands {
		region, ok := growRegion(grid, c.idx, need, grid.regionA)
		grid.regionA = region
		if ok {
			return assignTasks(g, region, grid), true
		}
	}
	return nil, false
}

// TUMConfig weights the proposed mapper's cost terms.
type TUMConfig struct {
	// WCriticality penalises occupying cores that are overdue for
	// testing; keeping them idle is what lets the test scheduler reach
	// them (the "test-aware" part of the DATE'15 mapper).
	WCriticality float64
	// WUtilization penalises historically hot cores, spreading stress
	// (the "utilization-oriented" part).
	WUtilization float64
	// WDispersion penalises spread-out regions (communication cost).
	WDispersion float64
}

// DefaultTUMConfig balances the three terms as the experiments use them.
func DefaultTUMConfig() TUMConfig {
	return TUMConfig{WCriticality: 1.0, WUtilization: 0.5, WDispersion: 0.3}
}

// TUM is the proposed test-aware utilization-oriented runtime mapper.
type TUM struct {
	Cfg TUMConfig
}

// NewTUM returns the proposed mapper with default weights.
func NewTUM() *TUM { return &TUM{Cfg: DefaultTUMConfig()} }

// Name implements Policy.
func (*TUM) Name() string { return "TUM" }

// Map implements Policy: every free core is tried as a region seed; the
// candidate region with the lowest combined cost (criticality of occupied
// cores + utilization history + dispersion from the seed) wins.
func (m *TUM) Map(g *workload.Graph, grid *Grid) (Assignment, bool) {
	need := g.Size()
	bestCost := math.Inf(1)
	var best []int
	// Candidate regions double-buffer through the grid scratch: the
	// best-so-far region holds one buffer while the other is regrown.
	cur := grid.regionA
	spare := grid.regionB
	defer func() { grid.regionA, grid.regionB = cur, spare }()
	for i := range grid.Cores {
		if !grid.Cores[i].Free {
			continue
		}
		region, ok := growRegion(grid, i, need, cur)
		cur = region
		if !ok {
			continue
		}
		cost := 0.0
		seed := grid.Coord(i)
		for _, idx := range region {
			cv := grid.Cores[idx]
			cost += m.Cfg.WCriticality * cv.Criticality
			cost += m.Cfg.WUtilization * cv.Utilization
			cost += m.Cfg.WDispersion * float64(seed.Hops(grid.Coord(idx)))
		}
		if cost < bestCost {
			bestCost = cost
			best = region
			cur, spare = spare, cur // keep best's buffer out of the regrow cycle
		}
	}
	if best == nil {
		return nil, false
	}
	return assignTasks(g, best, grid), true
}

// ByName resolves a policy for the CLI tools.
func ByName(name string) (Policy, error) {
	switch name {
	case "FF", "ff":
		return FirstFree{}, nil
	case "NN", "nn":
		return NearestNeighbour{}, nil
	case "CoNA", "cona":
		return CoNA{}, nil
	case "TUM", "tum":
		return NewTUM(), nil
	case "MapPro", "mappro":
		return MapPro{}, nil
	default:
		return nil, fmt.Errorf("mapping: unknown policy %q", name)
	}
}

// Dispersion measures a mapping's communication spread: the mean
// Manhattan distance over the application's dependency edges. Lower is
// better (contiguous regions).
func Dispersion(g *workload.Graph, as Assignment) float64 {
	edges, sum := 0, 0
	for _, t := range g.Tasks {
		for _, d := range t.Deps {
			sum += as[t.ID].Hops(as[d])
			edges++
		}
	}
	if edges == 0 {
		return 0
	}
	return float64(sum) / float64(edges)
}

// MapPro approximates the authors' NOCS'15 proactive region selection:
// the mesh is scanned in squares sized to the incoming application, each
// square is scored by its current occupancy (the "availability" the
// original maintains incrementally as applications ripple through the
// network), and the least-fragmented square wins. Task placement then
// fills the square's free cells contiguously.
type MapPro struct{}

// Name implements Policy.
func (MapPro) Name() string { return "MapPro" }

// Map implements Policy.
func (MapPro) Map(g *workload.Graph, grid *Grid) (Assignment, bool) {
	need := g.Size()
	side := 1
	for side*side < need {
		side++
	}
	bestOccupied := -1
	bestAnchor := -1
	for side <= grid.Width || side <= grid.Height {
		w, h := side, side
		if w > grid.Width {
			w = grid.Width
		}
		if h > grid.Height {
			h = grid.Height
		}
		for y := 0; y+h <= grid.Height; y++ {
			for x := 0; x+w <= grid.Width; x++ {
				free, occupied := 0, 0
				for dy := 0; dy < h; dy++ {
					for dx := 0; dx < w; dx++ {
						if grid.Cores[(y+dy)*grid.Width+x+dx].Free {
							free++
						} else {
							occupied++
						}
					}
				}
				if free < need {
					continue
				}
				if bestOccupied < 0 || occupied < bestOccupied {
					bestOccupied = occupied
					bestAnchor = y*grid.Width + x
				}
			}
		}
		if bestAnchor >= 0 {
			// Collect the square's free cells row-major and grow from
			// the first one so communicating tasks stay adjacent.
			ax, ay := bestAnchor%grid.Width, bestAnchor/grid.Width
			var cells []int
			for dy := 0; dy < h && len(cells) < need; dy++ {
				for dx := 0; dx < w && len(cells) < need; dx++ {
					idx := (ay+dy)*grid.Width + ax + dx
					if grid.Cores[idx].Free {
						cells = append(cells, idx)
					}
				}
			}
			return assignTasks(g, cells, grid), true
		}
		if side >= grid.Width && side >= grid.Height {
			break
		}
		side++
	}
	return nil, false
}
