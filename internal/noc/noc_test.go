package noc

import (
	"math"
	"testing"
	"testing/quick"

	"potsim/internal/sim"
)

func mustNet(t *testing.T, w, h int) *Network {
	t.Helper()
	n, err := NewNetwork(DefaultConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	if DefaultConfig(4, 4).Validate() != nil {
		t.Error("default config invalid")
	}
	if (Config{Width: 0, Height: 4, BufferDepth: 4, ClockHz: 1e9}).Validate() == nil {
		t.Error("zero width accepted")
	}
	if (Config{Width: 4, Height: 4, BufferDepth: 0, ClockHz: 1e9}).Validate() == nil {
		t.Error("zero buffer accepted")
	}
	if (Config{Width: 4, Height: 4, BufferDepth: 4, ClockHz: 0}).Validate() == nil {
		t.Error("zero clock accepted")
	}
}

func TestCoordHops(t *testing.T) {
	a, b := Coord{0, 0}, Coord{3, 2}
	if a.Hops(b) != 5 || b.Hops(a) != 5 {
		t.Error("Manhattan distance wrong")
	}
	if a.Hops(a) != 0 {
		t.Error("self distance should be zero")
	}
}

func TestPortString(t *testing.T) {
	names := map[Port]string{Local: "local", North: "north", East: "east", South: "south", West: "west"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}

func TestInjectValidation(t *testing.T) {
	n := mustNet(t, 4, 4)
	if _, err := n.Inject(Coord{-1, 0}, Coord{1, 1}, 1); err == nil {
		t.Error("out-of-mesh source accepted")
	}
	if _, err := n.Inject(Coord{0, 0}, Coord{4, 0}, 1); err == nil {
		t.Error("out-of-mesh destination accepted")
	}
	if _, err := n.Inject(Coord{0, 0}, Coord{1, 0}, 0); err == nil {
		t.Error("zero-flit packet accepted")
	}
}

func TestSingleFlitZeroLoadLatency(t *testing.T) {
	n := mustNet(t, 4, 4)
	pkt, err := n.Inject(Coord{0, 0}, Coord{3, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !n.RunUntilDrained(100) {
		t.Fatal("packet never delivered")
	}
	// Zero-load: hops + size cycles.
	want := int64(3 + 1)
	if pkt.Latency() != want {
		t.Errorf("latency = %d, want %d", pkt.Latency(), want)
	}
}

func TestMultiFlitSerialisation(t *testing.T) {
	n := mustNet(t, 4, 4)
	pkt, _ := n.Inject(Coord{0, 0}, Coord{2, 2}, 6)
	if !n.RunUntilDrained(200) {
		t.Fatal("packet never delivered")
	}
	want := int64(4 + 6) // hops + flits
	if pkt.Latency() != want {
		t.Errorf("latency = %d, want %d", pkt.Latency(), want)
	}
}

func TestSelfDelivery(t *testing.T) {
	n := mustNet(t, 2, 2)
	pkt, _ := n.Inject(Coord{1, 1}, Coord{1, 1}, 2)
	if !n.RunUntilDrained(10) {
		t.Fatal("self packet never delivered")
	}
	if pkt.Latency() != 2 { // 0 hops + 2 flits
		t.Errorf("self latency = %d, want 2", pkt.Latency())
	}
}

func TestXYPathUsesDimensionOrder(t *testing.T) {
	// Route computation itself: X first, then Y.
	if routeXY(Coord{0, 0}, Coord{2, 2}) != East {
		t.Error("should head east first")
	}
	if routeXY(Coord{2, 0}, Coord{2, 2}) != South {
		t.Error("should head south after x aligned")
	}
	if routeXY(Coord{2, 2}, Coord{2, 2}) != Local {
		t.Error("should eject at destination")
	}
	if routeXY(Coord{3, 3}, Coord{1, 0}) != West {
		t.Error("should head west")
	}
	if routeXY(Coord{1, 3}, Coord{1, 0}) != North {
		t.Error("should head north")
	}
}

func TestWormholeNoInterleaving(t *testing.T) {
	// Two long packets from different sources to the same destination
	// must arrive with contiguous flit sequence (wormhole holds the
	// output until the tail passes). We verify via delivery: both arrive
	// intact and latencies reflect serialisation at the shared link.
	n := mustNet(t, 4, 1)
	p1, _ := n.Inject(Coord{0, 0}, Coord{3, 0}, 8)
	p2, _ := n.Inject(Coord{1, 0}, Coord{3, 0}, 8)
	if !n.RunUntilDrained(500) {
		t.Fatal("packets never drained")
	}
	if p1.Latency() <= 0 || p2.Latency() <= 0 {
		t.Fatal("packets not delivered")
	}
	// The second of the two to win the shared link waits for ~8 flits.
	slow := p1.Latency()
	if p2.Latency() > slow {
		slow = p2.Latency()
	}
	if slow < 8+3 {
		t.Errorf("loser latency %d too small for wormhole serialisation", slow)
	}
}

func TestAllPairsDeliver(t *testing.T) {
	n := mustNet(t, 3, 3)
	want := 0
	for sy := 0; sy < 3; sy++ {
		for sx := 0; sx < 3; sx++ {
			for dy := 0; dy < 3; dy++ {
				for dx := 0; dx < 3; dx++ {
					if _, err := n.Inject(Coord{sx, sy}, Coord{dx, dy}, 3); err != nil {
						t.Fatal(err)
					}
					want++
				}
			}
		}
	}
	if !n.RunUntilDrained(10000) {
		t.Fatalf("network did not drain: %d in flight", n.InFlight())
	}
	if got := len(n.Delivered()); got != want {
		t.Errorf("delivered %d packets, want %d", got, want)
	}
}

func TestHeavyLoadDrainsEventually(t *testing.T) {
	// Saturating burst: every node sends 4 packets. XY wormhole routing
	// is deadlock-free, so everything must drain.
	n := mustNet(t, 4, 4)
	rng := sim.NewRNG(5).Stream("burst")
	for round := 0; round < 4; round++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				src := Coord{x, y}
				dst := Uniform(src, n.Config(), rng)
				if _, err := n.Inject(src, dst, 4); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if !n.RunUntilDrained(100000) {
		t.Fatalf("deadlock or livelock: %d packets stuck", n.InFlight())
	}
}

func TestSummarise(t *testing.T) {
	n := mustNet(t, 4, 4)
	n.Inject(Coord{0, 0}, Coord{1, 0}, 1)
	n.Inject(Coord{0, 0}, Coord{3, 3}, 2)
	n.RunUntilDrained(1000)
	s := n.Summarise()
	if s.Delivered != 2 {
		t.Fatalf("delivered = %d", s.Delivered)
	}
	if s.MeanHops != 3.5 { // (1 + 6)/2
		t.Errorf("mean hops = %v, want 3.5", s.MeanHops)
	}
	if s.MeanLatency <= 0 || s.MaxLatency < s.P95Latency {
		t.Errorf("latency stats inconsistent: %+v", s)
	}
	if s.FlitsEjected != 3 {
		t.Errorf("flits ejected = %d, want 3", s.FlitsEjected)
	}
}

func TestTxnZeroLoadMatchesFlitSim(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	m := NewTxnModel(cfg)
	cases := []struct {
		src, dst Coord
		size     int
	}{
		{Coord{0, 0}, Coord{5, 0}, 1},
		{Coord{0, 0}, Coord{3, 4}, 4},
		{Coord{2, 2}, Coord{2, 3}, 8},
	}
	for _, c := range cases {
		n, _ := NewNetwork(cfg)
		pkt, _ := n.Inject(c.src, c.dst, c.size)
		if !n.RunUntilDrained(1000) {
			t.Fatal("no delivery")
		}
		if got, want := pkt.Latency(), m.ZeroLoadCycles(c.src, c.dst, c.size); got != want {
			t.Errorf("%v->%v size %d: flit sim %d cycles, model %d",
				c.src, c.dst, c.size, got, want)
		}
	}
}

func TestTxnContentionStretch(t *testing.T) {
	m := NewTxnModel(DefaultConfig(8, 8))
	src, dst := Coord{0, 0}, Coord{7, 7}
	base := m.Cycles(src, dst, 4, 0)
	mid := m.Cycles(src, dst, 4, 0.5)
	high := m.Cycles(src, dst, 4, 0.9)
	if !(base < mid && mid < high) {
		t.Errorf("contention not monotone: %d, %d, %d", base, mid, high)
	}
	if m.Cycles(src, dst, 4, 2.0) != m.Cycles(src, dst, 4, 0.95) {
		t.Error("utilisation should clamp at 0.95")
	}
	if m.Latency(src, dst, 4, 0) != sim.FromSeconds(float64(base)/1e9) {
		t.Error("Latency() clock conversion wrong")
	}
}

// Calibration: at low offered load, measured mean latency stays within
// 25% of the analytic zero-load prediction for uniform traffic.
func TestTxnCalibration(t *testing.T) {
	cfg := DefaultConfig(6, 6)
	st, err := RunLoadPoint(cfg, 42, 0.02, 4, 2000, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered < 100 {
		t.Fatalf("too few packets delivered: %d", st.Delivered)
	}
	// Analytic expectation: mean hops of uniform traffic on 6x6 mesh is
	// ~(W+H)/3 = 4; zero-load latency = hops + size.
	want := st.MeanHops + 4
	if math.Abs(st.MeanLatency-want)/want > 0.25 {
		t.Errorf("measured %v cycles vs analytic %v: model out of calibration",
			st.MeanLatency, want)
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	low, err := RunLoadPoint(cfg, 7, 0.05, 4, 1000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunLoadPoint(cfg, 7, 0.45, 4, 1000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if high.MeanLatency <= low.MeanLatency {
		t.Errorf("latency did not rise with load: %v vs %v", low.MeanLatency, high.MeanLatency)
	}
}

// TestPatterns: the test traffic pattern never addresses a packet to
// its own source and stays inside the mesh.
func TestPatterns(t *testing.T) {
	cfg := DefaultConfig(4, 3)
	rng := sim.NewRNG(3).Stream("pat")
	for i := 0; i < 200; i++ {
		src := Coord{rng.Intn(4), rng.Intn(3)}
		d := Uniform(src, cfg, rng)
		if d == src {
			t.Fatal("uniform returned source")
		}
		if d.X < 0 || d.X >= 4 || d.Y < 0 || d.Y >= 3 {
			t.Fatalf("uniform left the mesh: %v", d)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	n := mustNet(t, 2, 2)
	rng := sim.NewRNG(1).Stream("g")
	if _, err := NewGenerator(n, rng, 1.5, 1); err == nil {
		t.Error("rate > 1 accepted")
	}
	if _, err := NewGenerator(n, rng, 0.1, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewGenerator(nil, rng, 0.1, 1); err == nil {
		t.Error("nil network accepted")
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() Stats {
		st, err := RunLoadPoint(DefaultConfig(4, 4), 11, 0.2, 4, 500, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("runs differ:\n%+v\n%+v", a, b)
	}
}

// Property: packet conservation — everything injected is either delivered
// or still in flight, never lost or duplicated.
func TestPacketConservationProperty(t *testing.T) {
	prop := func(seed uint64, rateRaw uint8) bool {
		rate := float64(rateRaw%50) / 100
		net, err := NewNetwork(DefaultConfig(4, 4))
		if err != nil {
			return false
		}
		gen, err := NewGenerator(net, sim.NewRNG(seed).Stream("p"), rate, 3)
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			if gen.Tick() != nil {
				return false
			}
			net.Step()
		}
		return gen.Offered() == int64(len(net.Delivered())+net.InFlight())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAdvanceToIdleSkip(t *testing.T) {
	n := mustNet(t, 4, 4)
	n.AdvanceTo(1_000_000)
	if n.Cycle() != 1_000_000 {
		t.Fatalf("idle skip landed at %d", n.Cycle())
	}
	// With traffic, AdvanceTo must actually simulate.
	pkt, _ := n.Inject(Coord{0, 0}, Coord{3, 3}, 4)
	n.AdvanceTo(1_000_100)
	if pkt.Latency() <= 0 {
		t.Error("packet not delivered during AdvanceTo")
	}
	if pkt.DeliveredAt <= 1_000_000 {
		t.Error("delivery cycle predates injection")
	}
}

func TestDeliveredSince(t *testing.T) {
	n := mustNet(t, 2, 2)
	n.Inject(Coord{0, 0}, Coord{1, 0}, 1)
	n.RunUntilDrained(100)
	first := n.DeliveredSince(0)
	if len(first) != 1 {
		t.Fatalf("got %d deliveries", len(first))
	}
	if more := n.DeliveredSince(1); len(more) != 0 {
		t.Error("cursor past end should return nothing")
	}
	n.Inject(Coord{1, 0}, Coord{0, 1}, 2)
	n.RunUntilDrained(100)
	if more := n.DeliveredSince(1); len(more) != 1 {
		t.Errorf("incremental consumption got %d", len(more))
	}
	if all := n.DeliveredSince(-5); len(all) != 2 {
		t.Error("negative cursor should clamp to 0")
	}
}

func TestVirtualChannelConfigValidation(t *testing.T) {
	cfg := DefaultConfig(4, 4)
	cfg.VirtualChannels = 0
	if cfg.Validate() == nil {
		t.Error("zero VCs accepted")
	}
}

func TestVirtualChannelsPreserveZeroLoadLatency(t *testing.T) {
	for _, vcs := range []int{1, 2, 4} {
		cfg := DefaultConfig(4, 4)
		cfg.VirtualChannels = vcs
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pkt, _ := n.Inject(Coord{0, 0}, Coord{3, 2}, 5)
		if !n.RunUntilDrained(200) {
			t.Fatalf("vc=%d: packet never delivered", vcs)
		}
		if want := int64(5 + 5); pkt.Latency() != want { // hops + size
			t.Errorf("vc=%d: latency = %d, want %d", vcs, pkt.Latency(), want)
		}
	}
}

func TestVirtualChannelsRelieveHeadOfLineBlocking(t *testing.T) {
	// Under load, a second VC lets packets bypass a blocked wormhole
	// instead of queueing behind it: mean latency must drop.
	run := func(vcs int) Stats {
		cfg := DefaultConfig(4, 4)
		cfg.VirtualChannels = vcs
		st, err := RunLoadPoint(cfg, 42, 0.3, 4, 1000, 4000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	one, two := run(1), run(2)
	if two.MeanLatency >= one.MeanLatency {
		t.Errorf("2 VCs did not reduce latency: %v vs %v", two.MeanLatency, one.MeanLatency)
	}
}

// Property: conservation holds for any VC count and topology.
func TestConservationAcrossConfigsProperty(t *testing.T) {
	prop := func(seed uint64, vcRaw, topoRaw uint8) bool {
		cfg := DefaultConfig(4, 4)
		cfg.VirtualChannels = int(vcRaw%3) + 1
		if topoRaw%2 == 1 {
			cfg.Topology = TopologyTorus
			cfg.VirtualChannels++ // the dateline scheme needs two classes
		}
		net, err := NewNetwork(cfg)
		if err != nil {
			return false
		}
		gen, err := NewGenerator(net, sim.NewRNG(seed).Stream("p"), 0.2, 3)
		if err != nil {
			return false
		}
		for i := 0; i < 400; i++ {
			if gen.Tick() != nil {
				return false
			}
			net.Step()
		}
		return gen.Offered() == int64(len(net.Delivered())+net.InFlight())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func torusConfig(w, h int) Config {
	cfg := DefaultConfig(w, h)
	cfg.Topology = TopologyTorus
	cfg.VirtualChannels = 2
	return cfg
}

func TestTorusConfigValidation(t *testing.T) {
	cfg := torusConfig(4, 4)
	if cfg.Validate() != nil {
		t.Error("valid torus config rejected")
	}
	cfg.VirtualChannels = 1
	if cfg.Validate() == nil {
		t.Error("torus with one VC accepted (dateline needs two classes)")
	}
	if TopologyMesh.String() != "mesh" || TopologyTorus.String() != "torus" {
		t.Error("topology names wrong")
	}
}

func TestTorusHops(t *testing.T) {
	cfg := torusConfig(8, 8)
	a, b := Coord{0, 0}, Coord{7, 7}
	if got := cfg.Hops(a, b); got != 2 { // wrap once in each dimension
		t.Errorf("torus hops = %d, want 2", got)
	}
	if got := cfg.Hops(a, Coord{4, 0}); got != 4 { // tie: both ways 4
		t.Errorf("torus hops = %d, want 4", got)
	}
	mesh := DefaultConfig(8, 8)
	if got := mesh.Hops(a, b); got != 14 {
		t.Errorf("mesh hops = %d, want 14", got)
	}
}

func TestTorusWraparoundShortensLatency(t *testing.T) {
	n, err := NewNetwork(torusConfig(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	// (0,0) -> (7,0): one hop west over the wraparound link.
	pkt, _ := n.Inject(Coord{0, 0}, Coord{7, 0}, 1)
	if !n.RunUntilDrained(100) {
		t.Fatal("no delivery")
	}
	if want := int64(1 + 1); pkt.Latency() != want {
		t.Errorf("wraparound latency = %d, want %d", pkt.Latency(), want)
	}
}

func TestTorusAllPairsDeliver(t *testing.T) {
	n, err := NewNetwork(torusConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for sy := 0; sy < 4; sy++ {
		for sx := 0; sx < 4; sx++ {
			for dy := 0; dy < 4; dy++ {
				for dx := 0; dx < 4; dx++ {
					if _, err := n.Inject(Coord{sx, sy}, Coord{dx, dy}, 3); err != nil {
						t.Fatal(err)
					}
					want++
				}
			}
		}
	}
	if !n.RunUntilDrained(50000) {
		t.Fatalf("torus did not drain: %d in flight", n.InFlight())
	}
	if got := len(n.Delivered()); got != want {
		t.Errorf("delivered %d, want %d", got, want)
	}
	// Minimal torus routing: nothing may take longer than a minimal
	// path would at zero load... under contention only the lower bound
	// holds.
	for _, p := range n.Delivered() {
		minLat := int64(n.Config().Hops(p.Src, p.Dst) + p.SizeFlits)
		if p.Latency() < minLat {
			t.Fatalf("impossibly fast %v->%v: %d < %d", p.Src, p.Dst, p.Latency(), minLat)
		}
	}
}

// The decisive torus test: rings full of traffic deadlock without the
// dateline scheme; with it, everything must drain.
func TestTorusDeadlockFreeUnderRingSaturation(t *testing.T) {
	n, err := NewNetwork(torusConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Saturate every X ring: each node sends 4 packets halfway around
	// its own row, all in the same rotational direction.
	for round := 0; round < 4; round++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				dst := Coord{(x + 2) % 4, y}
				if _, err := n.Inject(Coord{x, y}, dst, 4); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if !n.RunUntilDrained(100000) {
		t.Fatalf("torus ring deadlocked: %d packets stuck", n.InFlight())
	}
	// And the Y rings.
	for round := 0; round < 4; round++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				dst := Coord{x, (y + 2) % 4}
				if _, err := n.Inject(Coord{x, y}, dst, 4); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if !n.RunUntilDrained(100000) {
		t.Fatalf("torus column rings deadlocked: %d packets stuck", n.InFlight())
	}
}

func TestTorusUniformTrafficDrains(t *testing.T) {
	cfg := torusConfig(4, 4)
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(net, sim.NewRNG(3).Stream("torus"), 0.25, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := gen.Tick(); err != nil {
			t.Fatal(err)
		}
		net.Step()
	}
	if !net.RunUntilDrained(100000) {
		t.Fatalf("torus with uniform traffic stuck: %d in flight", net.InFlight())
	}
	if gen.Offered() != int64(len(net.Delivered())) {
		t.Errorf("conservation broken: offered %d delivered %d",
			gen.Offered(), len(net.Delivered()))
	}
	// Wraparound must shorten observed mean hops vs the open mesh bound.
	st := net.Summarise()
	if st.MeanHops <= 0 || st.MeanHops > 2.67+0.3 { // uniform 4x4 torus mean ~2.13
		t.Errorf("torus mean hops %v implausible", st.MeanHops)
	}
}
