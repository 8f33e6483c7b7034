package mapping

import (
	"testing"
	"testing/quick"

	"potsim/internal/noc"
	"potsim/internal/sim"
	"potsim/internal/workload"
)

func freeGrid(w, h int) *Grid {
	g := NewGrid(w, h)
	for i := range g.Cores {
		g.Cores[i].Free = true
	}
	return g
}

func occupy(g *Grid, coords ...noc.Coord) {
	for _, c := range coords {
		g.Cores[g.Index(c)].Free = false
	}
}

func validAssignment(t *testing.T, g *workload.Graph, as Assignment, grid *Grid) {
	t.Helper()
	if len(as) != g.Size() {
		t.Fatalf("assignment covers %d tasks, want %d", len(as), g.Size())
	}
	seen := map[noc.Coord]bool{}
	for id, c := range as {
		if c.X < 0 || c.X >= grid.Width || c.Y < 0 || c.Y >= grid.Height {
			t.Fatalf("task %d mapped off-mesh at %v", id, c)
		}
		if seen[c] {
			t.Fatalf("core %v assigned twice", c)
		}
		seen[c] = true
		if !grid.Cores[grid.Index(c)].Free {
			t.Fatalf("task %d mapped to occupied core %v", id, c)
		}
	}
}

func TestAllPoliciesMapOnEmptyGrid(t *testing.T) {
	for _, p := range All() {
		for _, g := range workload.Library() {
			grid := freeGrid(8, 8)
			as, ok := p.Map(g, grid)
			if !ok {
				t.Fatalf("%s failed to map %s on empty 8x8", p.Name(), g.Name)
			}
			validAssignment(t, g, as, grid)
		}
	}
}

func TestPoliciesFailWhenTooFull(t *testing.T) {
	g := workload.PIP() // 8 tasks
	grid := freeGrid(3, 3)
	occupy(grid, noc.Coord{X: 0, Y: 0}, noc.Coord{X: 1, Y: 1}) // 7 free < 8 needed
	for _, p := range All() {
		if _, ok := p.Map(g, grid); ok {
			t.Errorf("%s mapped onto insufficient free cores", p.Name())
		}
	}
}

func TestNNFailsOnFragmentedButFFSucceeds(t *testing.T) {
	// Checkerboard occupation: free cores are all isolated, so any
	// contiguous policy must fail for a multi-task app while FF succeeds.
	grid := freeGrid(4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if (x+y)%2 == 0 {
				occupy(grid, noc.Coord{X: x, Y: y})
			}
		}
	}
	g := &workload.Graph{Name: "pair", Iterations: 1, Tasks: []workload.Task{
		{ID: 0, WorkCycles: 1000, DemandHz: 1e9, Activity: 0.5},
		{ID: 1, WorkCycles: 1000, DemandHz: 1e9, Activity: 0.5, Deps: []int{0}},
	}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := (NearestNeighbour{}).Map(g, grid); ok {
		t.Error("NN mapped a 2-task app onto isolated cores")
	}
	if _, ok := (CoNA{}).Map(g, grid); ok {
		t.Error("CoNA mapped a 2-task app onto isolated cores")
	}
	as, ok := (FirstFree{}).Map(g, grid)
	if !ok {
		t.Fatal("FF should map on fragmented grid")
	}
	validAssignment(t, g, as, grid)
}

func TestContiguousPoliciesBeatFFOnDispersion(t *testing.T) {
	// Occupy a column pattern so FF's row-major picks are scattered.
	grid := freeGrid(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if x%2 == 0 && y < 4 {
				occupy(grid, noc.Coord{X: x, Y: y})
			}
		}
	}
	g := workload.MWD() // 12 tasks, linear chain
	ffAs, ok := (FirstFree{}).Map(g, grid)
	if !ok {
		t.Fatal("FF failed")
	}
	nnAs, ok := (NearestNeighbour{}).Map(g, grid)
	if !ok {
		t.Fatal("NN failed")
	}
	if Dispersion(g, nnAs) > Dispersion(g, ffAs) {
		t.Errorf("NN dispersion %v worse than FF %v",
			Dispersion(g, nnAs), Dispersion(g, ffAs))
	}
}

func TestTUMAvoidsCriticalCores(t *testing.T) {
	// Two equally-sized free regions; the left one holds cores overdue
	// for testing. TUM must pick the right one, criticality-blind
	// policies (FF) pick the left.
	grid := freeGrid(8, 4)
	// Wall of occupied cores splits the mesh at x=3,4.
	for y := 0; y < 4; y++ {
		occupy(grid, noc.Coord{X: 3, Y: y}, noc.Coord{X: 4, Y: y})
	}
	for i := range grid.Cores {
		c := grid.Coord(i)
		if c.X < 3 {
			grid.Cores[i].Criticality = 5 // overdue for test
		}
	}
	g := workload.PIP() // 8 tasks fits either 3x4 region... 12 cores each
	tum := NewTUM()
	as, ok := tum.Map(g, grid)
	if !ok {
		t.Fatal("TUM failed to map")
	}
	for id, c := range as {
		if c.X < 3 {
			t.Errorf("TUM placed task %d on critical core %v", id, c)
		}
	}
	ffAs, ok := (FirstFree{}).Map(g, grid)
	if !ok {
		t.Fatal("FF failed to map")
	}
	if MeanCriticality(ffAs, grid) <= MeanCriticality(as, grid) {
		t.Error("TUM should occupy less critical cores than FF")
	}
}

func TestTUMPrefersColdCores(t *testing.T) {
	grid := freeGrid(8, 4)
	for y := 0; y < 4; y++ {
		occupy(grid, noc.Coord{X: 3, Y: y}, noc.Coord{X: 4, Y: y})
	}
	for i := range grid.Cores {
		if grid.Coord(i).X < 3 {
			grid.Cores[i].Utilization = 1 // historically hot
		}
	}
	as, ok := NewTUM().Map(workload.PIP(), grid)
	if !ok {
		t.Fatal("TUM failed to map")
	}
	for id, c := range as {
		if c.X < 3 {
			t.Errorf("TUM placed task %d on hot core %v", id, c)
		}
	}
}

func TestAssignmentFollowsTopoOrder(t *testing.T) {
	// With a chain graph on an empty grid, dependent tasks should sit on
	// adjacent-ish cores (BFS order): dispersion must be small.
	g := workload.MWD()
	grid := freeGrid(8, 8)
	as, ok := (NearestNeighbour{}).Map(g, grid)
	if !ok {
		t.Fatal("NN failed")
	}
	if d := Dispersion(g, as); d > 3 {
		t.Errorf("chain dispersion %v too high for BFS placement", d)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"FF", "NN", "CoNA", "TUM", "ff", "tum"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestDispersionEdgeless(t *testing.T) {
	g := &workload.Graph{Name: "solo", Iterations: 1, Tasks: []workload.Task{
		{ID: 0, WorkCycles: 1, DemandHz: 1, Activity: 1},
	}}
	if d := Dispersion(g, Assignment{noc.Coord{X: 0, Y: 0}}); d != 0 {
		t.Errorf("edgeless dispersion = %v", d)
	}
}

func TestGridHelpers(t *testing.T) {
	g := NewGrid(4, 3)
	if g.FreeCount() != 0 {
		t.Error("fresh grid should have no free cores marked")
	}
	c := noc.Coord{X: 2, Y: 1}
	if g.Coord(g.Index(c)) != c {
		t.Error("Index/Coord round trip broken")
	}
	if _, n := g.neighbours(0); n != 2 { // corner
		t.Errorf("corner has %d neighbours", n)
	}
	if _, n := g.neighbours(g.Index(noc.Coord{X: 1, Y: 1})); n != 4 { // interior
		t.Error("interior should have 4 neighbours")
	}
}

// Property: any policy's successful mapping is a permutation of distinct
// free cores of the right cardinality.
func TestMappingValidityProperty(t *testing.T) {
	pols := All()
	prop := func(seed uint64, occupancy [16]bool, polIdx uint8) bool {
		grid := freeGrid(4, 4)
		for i, occ := range occupancy {
			if occ {
				grid.Cores[i].Free = false
			}
		}
		g, err := workload.Random(workload.DefaultRandomConfig(), 0,
			simStream(seed))
		if err != nil {
			return false
		}
		p := pols[int(polIdx)%len(pols)]
		as, ok := p.Map(g, grid)
		if !ok {
			// Legal refusal: FF only needs enough free cores anywhere.
			if p.Name() == "FF" && grid.FreeCount() >= g.Size() {
				return false
			}
			return true
		}
		seen := map[noc.Coord]bool{}
		for _, c := range as {
			idx := grid.Index(c)
			if idx < 0 || idx >= len(grid.Cores) || !grid.Cores[idx].Free || seen[c] {
				return false
			}
			seen[c] = true
		}
		return len(seen) == g.Size()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func simStream(seed uint64) *sim.Stream {
	return sim.NewRNG(seed).Stream("maptest")
}

func TestMapProPicksLeastFragmentedSquare(t *testing.T) {
	// Left half is peppered with occupied cells; the right half is clean.
	grid := freeGrid(8, 4)
	occupy(grid, noc.Coord{X: 0, Y: 0}, noc.Coord{X: 1, Y: 2}, noc.Coord{X: 2, Y: 1})
	g := workload.PIP() // 8 tasks -> 3x3 squares
	as, ok := (MapPro{}).Map(g, grid)
	if !ok {
		t.Fatal("MapPro failed to map")
	}
	validAssignment(t, g, as, grid)
	for id, c := range as {
		if c.X < 3 {
			t.Errorf("task %d landed in the fragmented half at %v", id, c)
		}
	}
	// Compact placement: dispersion of a square region stays small.
	if d := Dispersion(g, as); d > 3 {
		t.Errorf("MapPro dispersion %v too high for a square region", d)
	}
}

func TestMapProGrowsSquareWhenNeeded(t *testing.T) {
	// 16-task app on an 8x8 grid needs a 4x4 square; with a fully free
	// grid MapPro must succeed and keep the region square-compact.
	grid := freeGrid(8, 8)
	g := workload.VOPD()
	as, ok := (MapPro{}).Map(g, grid)
	if !ok {
		t.Fatal("MapPro failed on an empty grid")
	}
	validAssignment(t, g, as, grid)
	minX, maxX, minY, maxY := 8, -1, 8, -1
	for _, c := range as {
		if c.X < minX {
			minX = c.X
		}
		if c.X > maxX {
			maxX = c.X
		}
		if c.Y < minY {
			minY = c.Y
		}
		if c.Y > maxY {
			maxY = c.Y
		}
	}
	if (maxX-minX+1) > 4 || (maxY-minY+1) > 4 {
		t.Errorf("VOPD region bounding box %dx%d exceeds the 4x4 square",
			maxX-minX+1, maxY-minY+1)
	}
}

// FreeCount returns the number of free cores (a test helper).
func (g *Grid) FreeCount() int {
	n := 0
	for _, c := range g.Cores {
		if c.Free {
			n++
		}
	}
	return n
}

// MeanCriticality returns the average test-criticality of the cores an
// assignment occupies — the quantity TUM minimises.
func MeanCriticality(as Assignment, grid *Grid) float64 {
	if len(as) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range as {
		sum += grid.Cores[grid.Index(c)].Criticality
	}
	return sum / float64(len(as))
}

// All returns every policy, for tests that compare them.
func All() []Policy {
	return []Policy{FirstFree{}, NearestNeighbour{}, CoNA{}, MapPro{}, NewTUM()}
}
