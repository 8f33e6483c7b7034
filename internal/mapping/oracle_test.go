package mapping

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"potsim/internal/workload"
)

// refGrow is the region search before dead seeds: a plain BFS from seed
// over free cores, in growRegion's neighbour order, with its own state.
func refGrow(grid *Grid, seed, need int) ([]int, bool) {
	if !grid.Cores[seed].Free {
		return nil, false
	}
	seen := make([]bool, len(grid.Cores))
	seen[seed] = true
	queue := []int{seed}
	var out []int
	for head := 0; head < len(queue) && len(out) < need; head++ {
		cur := queue[head]
		out = append(out, cur)
		nb, n := grid.neighbours(cur)
		for k := 0; k < n; k++ {
			if id := nb[k]; !seen[id] && grid.Cores[id].Free {
				seen[id] = true
				queue = append(queue, id)
			}
		}
	}
	return out, len(out) >= need
}

// refMap is the seed loop of NN, CoNA and TUM before dead seeds: every
// free seed in the policy's order is grown.
func refMap(p Policy, g *workload.Graph, grid *Grid) (Assignment, bool) {
	need := g.Size()
	var seeds []int
	for i := range grid.Cores {
		if grid.Cores[i].Free {
			seeds = append(seeds, i)
		}
	}
	switch p := p.(type) {
	case NearestNeighbour:
	case CoNA:
		freeNb := func(i int) int {
			fn := 0
			nb, n := grid.neighbours(i)
			for k := 0; k < n; k++ {
				if grid.Cores[nb[k]].Free {
					fn++
				}
			}
			return fn
		}
		sort.SliceStable(seeds, func(a, b int) bool { return freeNb(seeds[a]) > freeNb(seeds[b]) })
	case *TUM:
		bestCost := math.Inf(1)
		var best []int
		for _, i := range seeds {
			region, ok := refGrow(grid, i, need)
			if !ok {
				continue
			}
			cost := 0.0
			seed := grid.Coord(i)
			for _, idx := range region {
				cv := grid.Cores[idx]
				cost += p.Cfg.WCriticality * cv.Criticality
				cost += p.Cfg.WUtilization * cv.Utilization
				cost += p.Cfg.WDispersion * float64(seed.Hops(grid.Coord(idx)))
			}
			if cost < bestCost {
				bestCost, best = cost, region
			}
		}
		if best == nil {
			return nil, false
		}
		return assignTasks(g, best, grid), true
	default:
		panic("refMap: not a region-growing policy")
	}
	for _, i := range seeds {
		if region, ok := refGrow(grid, i, need); ok {
			return assignTasks(g, region, grid), true
		}
	}
	return nil, false
}

// mapCase draws a mesh, a free mask and a graph from seed, then maps a
// few graphs in a row on the same grid with each region-growing policy,
// redrawing the mask between calls so no dead mark may outlive its
// call, and compares every answer with refMap's.
func mapCase(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	grid := NewGrid(1+rng.Intn(12), 1+rng.Intn(12))
	if rng.Intn(8) == 0 {
		grid = NewGrid(32, 32)
	}
	for _, p := range []Policy{NearestNeighbour{}, CoNA{}, NewTUM()} {
		for call := 0; call < 3; call++ {
			density := rng.Float64()
			for i := range grid.Cores {
				grid.Cores[i] = CoreView{Free: rng.Float64() < density,
					Criticality: 2 * rng.Float64(), Utilization: rng.Float64()}
			}
			cfg := workload.DefaultRandomConfig()
			cfg.MinTasks = 1 + rng.Intn(min(len(grid.Cores), 24))
			cfg.MaxTasks = cfg.MinTasks
			g, err := workload.Random(cfg, call, simStream(uint64(seed)))
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := refMap(p, g, grid)
			got, ok := p.Map(g, grid)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s call %d on %dx%d, %d tasks: got %v %v, reference %v %v",
					seed, p.Name(), call, grid.Width, grid.Height, g.Size(), ok, got, wantOK, want)
			}
		}
	}
}

func TestMappersMatchReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		mapCase(t, seed)
	}
}

// FuzzMappersMatchReference runs mapCase on fuzzed seeds.
func FuzzMappersMatchReference(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(7))
	f.Fuzz(func(t *testing.T, seed int64) { mapCase(t, seed) })
}

// TestDeadSeedsSkipSearches maps onto a grid fragmented into free
// components all smaller than the application: each policy must refuse
// after one region search per component, not one per free core.
func TestDeadSeedsSkipSearches(t *testing.T) {
	grid := freeGrid(8, 8)
	for y := 0; y < 8; y++ { // columns 2 and 5 taken: three free 2x8 strips
		grid.Cores[y*8+2].Free = false
		grid.Cores[y*8+5].Free = false
	}
	cfg := workload.DefaultRandomConfig()
	cfg.MinTasks, cfg.MaxTasks = 17, 17
	g, err := workload.Random(cfg, 0, simStream(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{NearestNeighbour{}, CoNA{}, NewTUM()} {
		before := grid.stamp
		if _, ok := p.Map(g, grid); ok {
			t.Fatalf("%s mapped 17 tasks onto strips of 16", p.Name())
		}
		if searches := grid.stamp - before; searches != 3 {
			t.Errorf("%s ran %d region searches for 48 free cores in 3 components, want 3", p.Name(), searches)
		}
	}
}
