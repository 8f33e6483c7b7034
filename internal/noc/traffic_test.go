package noc

import (
	"fmt"
	"slices"

	"potsim/internal/sim"
)

// This file holds the synthetic-traffic harness the package's tests
// drive the flit-level network with: a uniform random traffic generator,
// a load-point runner and delivery statistics.

// Uniform picks a uniformly random node other than src.
func Uniform(src Coord, cfg Config, rng *sim.Stream) Coord {
	for {
		d := Coord{X: rng.Intn(cfg.Width), Y: rng.Intn(cfg.Height)}
		if d != src {
			return d
		}
	}
}

// Generator drives uniform random traffic into a network: every cycle
// each node injects a packet with probability rate/sizeFlits, so `rate`
// is the offered load in flits per node per cycle.
type Generator struct {
	net       *Network
	rng       *sim.Stream
	rateFPC   float64
	sizeFlits int
	offered   int64
}

// NewGenerator builds a traffic generator. rateFPC is flits per node per
// cycle in [0,1]; sizeFlits is the fixed packet size.
func NewGenerator(net *Network, rng *sim.Stream, rateFPC float64, sizeFlits int) (*Generator, error) {
	if rateFPC < 0 || rateFPC > 1 {
		return nil, fmt.Errorf("noc: rate %v outside [0,1]", rateFPC)
	}
	if sizeFlits < 1 {
		return nil, fmt.Errorf("noc: packet size must be >= 1 flit")
	}
	if net == nil || rng == nil {
		return nil, fmt.Errorf("noc: generator needs network and rng")
	}
	return &Generator{net: net, rng: rng, rateFPC: rateFPC, sizeFlits: sizeFlits}, nil
}

// Offered returns the number of packets injected so far.
func (g *Generator) Offered() int64 { return g.offered }

// Tick injects this cycle's traffic; call once per network Step.
func (g *Generator) Tick() error {
	cfg := g.net.cfg
	pInject := g.rateFPC / float64(g.sizeFlits)
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			if !g.rng.Bernoulli(pInject) {
				continue
			}
			src := Coord{X: x, Y: y}
			if _, err := g.net.Inject(src, Uniform(src, cfg, g.rng), g.sizeFlits); err != nil {
				return err
			}
			g.offered++
		}
	}
	return nil
}

// RunLoadPoint drives a fresh network at the given offered load for
// warmup+measure cycles, lets it drain for up to measure more, and
// returns the delivery statistics.
func RunLoadPoint(cfg Config, seed uint64, rateFPC float64, sizeFlits int, warmup, measure int64) (Stats, error) {
	net, err := NewNetwork(cfg)
	if err != nil {
		return Stats{}, err
	}
	gen, err := NewGenerator(net, sim.NewRNG(seed).Stream("noc-traffic"), rateFPC, sizeFlits)
	if err != nil {
		return Stats{}, err
	}
	for i := int64(0); i < warmup+measure; i++ {
		if err := gen.Tick(); err != nil {
			return Stats{}, err
		}
		net.Step()
	}
	net.RunUntilDrained(measure)
	return net.Summarise(), nil
}

// Run advances the network the given number of cycles.
func (n *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}

// RunUntilDrained steps until no packets remain in flight or maxCycles
// elapse; it reports whether the network drained.
func (n *Network) RunUntilDrained(maxCycles int64) bool {
	for i := int64(0); i < maxCycles; i++ {
		if n.inflight == 0 {
			return true
		}
		n.Step()
	}
	return n.inflight == 0
}

// InFlight returns the number of undelivered packets.
func (n *Network) InFlight() int { return n.inflight }

// Cycle returns the current router clock cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Delivered returns the delivered packets still retained.
func (n *Network) Delivered() []*Packet { return n.delivered }

// Stats summarises delivered traffic.
type Stats struct {
	Delivered    int
	MeanLatency  float64 // cycles
	P95Latency   int64
	MaxLatency   int64
	MeanHops     float64
	FlitsMoved   int64 // link traversals
	FlitsEjected int64
	// ThroughputFPC is accepted traffic in flits per cycle per node.
	ThroughputFPC float64
}

// Summarise computes delivery statistics over the retained packets. On
// a drained network that released none, the flit counts equal the
// flits every link and ejection port carried: a packet of size s over h
// hops moves s flits across each of its h links and ejects s.
func (n *Network) Summarise() Stats {
	var s Stats
	if len(n.delivered) == 0 {
		return s
	}
	lat := make([]int64, 0, len(n.delivered))
	var latSum, hopSum int64
	for _, p := range n.delivered {
		l := p.Latency()
		lat = append(lat, l)
		latSum += l
		hops := int64(n.cfg.Hops(p.Src, p.Dst))
		hopSum += hops
		s.FlitsMoved += hops * int64(p.SizeFlits)
		s.FlitsEjected += int64(p.SizeFlits)
		s.MaxLatency = max(s.MaxLatency, l)
	}
	s.Delivered = len(n.delivered)
	s.MeanLatency = float64(latSum) / float64(s.Delivered)
	s.MeanHops = float64(hopSum) / float64(s.Delivered)
	slices.Sort(lat)
	s.P95Latency = lat[(len(lat)*95)/100]
	if n.cycle > 0 {
		nodes := float64(n.cfg.Width * n.cfg.Height)
		s.ThroughputFPC = float64(s.FlitsEjected) / float64(n.cycle) / nodes
	}
	return s
}
