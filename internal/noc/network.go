package noc

import (
	"fmt"
)

// fifo is a bounded flit queue. Popped slots are reclaimed by a head
// offset (and a compaction before a would-grow append), so steady-state
// traffic reuses one backing array instead of allocating per wrap.
type fifo struct {
	buf  []Flit
	head int
	cap  int
}

func (q *fifo) len() int     { return len(q.buf) - q.head }
func (q *fifo) full() bool   { return q.len() >= q.cap }
func (q *fifo) front() *Flit { return &q.buf[q.head] }

func (q *fifo) push(f Flit) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Appending would reallocate while dead slots sit at the front:
		// slide the live flits down and reuse the array.
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, f)
}

func (q *fifo) pop() Flit {
	f := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return f
}

func (q *fifo) empty() bool { return q.len() == 0 }

// vcState is one virtual channel of one input port: a FIFO plus the
// routing/allocation state of the packet currently occupying it. Wormhole
// discipline: a VC holds flits of at most one packet at a time, from the
// moment its head is reserved until its tail is popped.
type vcState struct {
	fifo
	owner   int  // packet ID occupying this VC, -1 when free
	outPort Port // route of the occupying packet, -1 before route compute
	outVC   int  // downstream VC allocated to the packet, -1 before VC alloc
	// incoming counts flits staged to arrive here this cycle (credit
	// accounting); reset via Network.touched at the start of each Step.
	incoming int
}

func (v *vcState) reset() {
	v.owner = -1
	v.outPort = -1
	v.outVC = -1
}

// router is one five-port wormhole router with V virtual channels per
// input port.
type router struct {
	at Coord
	// in[p][v] is virtual channel v of input port p. The Local port has
	// a single unbounded VC (the injection queue; sources stall in the
	// producer model, not in the router).
	in [numPorts][]vcState
	// rr[p] is the round-robin arbitration pointer for output port p over
	// flattened (input port, vc) candidates.
	rr [numPorts]int
	// buffered counts flits currently held in any input FIFO, letting
	// the per-cycle allocation loop skip idle routers cheaply.
	buffered int
	// vcTotal is the flattened (input port, vc) candidate count, fixed at
	// construction; the round-robin pointers wrap at it.
	vcTotal int
}

// request is a non-empty input VC asking for an output port this cycle,
// with its flattened candidate index (input ports in order, then VCs).
type request struct {
	idx  int
	port Port
	vc   int
}

// move is a staged flit transfer decided in the allocation phase and
// applied atomically at the end of the cycle, so a flit advances at most
// one hop per cycle.
type move struct {
	from     *router
	fromPort Port
	fromVC   int
	outPort  Port    // output port used at 'from' (link identity)
	to       *router // nil = ejection at 'from'
	toPort   Port
	toVC     int
}

// Network is the flit-level mesh simulator.
type Network struct {
	cfg     Config
	routers []*router
	cycle   int64

	inflight  int
	delivered []*Packet
	delivBase int // absolute delivery index of delivered[0]
	nextID    int

	// free recycles Packet structs released via ReleaseDelivered, so a
	// steady-state co-simulation injects without allocating.
	free []*Packet

	// Streaming aggregates over released packets: Summarise stays exact
	// for count/mean/max even after their structs are recycled.
	relCount  int64
	relLatSum int64
	relHopSum int64
	relMaxLat int64

	flitsMoved   int64
	flitsEjected int64

	// linkFlits[router][outPort] counts flits that traversed that link.
	linkFlits [][]int64

	// staged per-cycle state: the decided flit transfers plus the list of
	// destination VCs whose incoming counters must be reset next cycle.
	moves   []move
	touched []*vcState
	// requests[out] lists the busy router's requests for output port out
	// in ascending candidate order; rebuilt per router and cycle.
	requests [numPorts][]request
}

// NewNetwork builds a mesh network.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg}
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			r := &router{at: Coord{x, y}}
			for p := Port(0); p < numPorts; p++ {
				vcs := cfg.VirtualChannels
				capacity := cfg.BufferDepth
				if p == Local {
					vcs = 1
					capacity = 1 << 30 // injection queue is unbounded
				}
				r.in[p] = make([]vcState, vcs)
				for v := range r.in[p] {
					r.in[p][v] = vcState{fifo: fifo{cap: capacity}}
					r.in[p][v].reset()
				}
				r.vcTotal += vcs
			}
			n.routers = append(n.routers, r)
			n.linkFlits = append(n.linkFlits, make([]int64, numPorts))
		}
	}
	return n, nil
}

// Cycle returns the current router clock cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

func (n *Network) routerAt(c Coord) *router {
	return n.routers[c.Y*n.cfg.Width+c.X]
}

// valid reports whether a coordinate is inside the mesh.
func (n *Network) valid(c Coord) bool {
	return c.X >= 0 && c.X < n.cfg.Width && c.Y >= 0 && c.Y < n.cfg.Height
}

// Inject queues a packet of sizeFlits flits at src destined for dst.
// It returns the tracked packet.
func (n *Network) Inject(src, dst Coord, sizeFlits int) (*Packet, error) {
	if !n.valid(src) || !n.valid(dst) {
		return nil, fmt.Errorf("noc: inject %v -> %v outside %dx%d mesh",
			src, dst, n.cfg.Width, n.cfg.Height)
	}
	if sizeFlits < 1 {
		return nil, fmt.Errorf("noc: packet needs at least one flit")
	}
	var pkt *Packet
	if k := len(n.free); k > 0 {
		pkt = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		pkt = new(Packet)
	}
	// Full overwrite: a recycled struct carries no trace of its past life.
	*pkt = Packet{
		ID: n.nextID, Src: src, Dst: dst, SizeFlits: sizeFlits,
		InjectedAt: n.cycle, DeliveredAt: -1,
	}
	n.nextID++
	n.inflight++
	r := n.routerAt(src)
	for i := 0; i < sizeFlits; i++ {
		r.in[Local][0].push(Flit{
			PacketID: pkt.ID, Src: src, Dst: dst, Seq: i,
			IsHead: i == 0, IsTail: i == sizeFlits-1,
			pkt: pkt,
		})
	}
	r.buffered += sizeFlits
	return pkt, nil
}

// routeXY computes the dimension-ordered output port.
func routeXY(at, dst Coord) Port {
	switch {
	case dst.X > at.X:
		return East
	case dst.X < at.X:
		return West
	case dst.Y > at.Y:
		return South
	case dst.Y < at.Y:
		return North
	default:
		return Local
	}
}

// route keeps the original single-path name for XY.
func route(at, dst Coord) Port { return routeXY(at, dst) }

// routeCandidates returns the minimal output ports allowed by the
// configured routing algorithm, in preference order. XY yields exactly
// one; west-first yields up to three adaptive candidates (the Glass-Ni
// turn model forbids only the two turns into West, so taking all west
// hops first keeps the network deadlock free while the remaining
// directions may be chosen adaptively by congestion).
func (n *Network) routeCandidates(at, dst Coord) (cands [3]Port, count int) {
	if at == dst {
		return [3]Port{Local}, 1
	}
	if n.cfg.Topology == TopologyTorus {
		return [3]Port{n.routeTorusXY(at, dst)}, 1
	}
	if n.cfg.Routing != RoutingWestFirst {
		return [3]Port{routeXY(at, dst)}, 1
	}
	if dst.X < at.X {
		return [3]Port{West}, 1 // all west hops first, no adaptivity
	}
	if dst.X > at.X {
		cands[count] = East
		count++
	}
	if dst.Y > at.Y {
		cands[count] = South
		count++
	}
	if dst.Y < at.Y {
		cands[count] = North
		count++
	}
	return cands, count
}

// neighbour returns the router adjacent to r through out, and the input
// port the flit arrives on there. On a torus, edges wrap around.
func (n *Network) neighbour(r *router, out Port) (*router, Port) {
	c := r.at
	switch out {
	case North:
		c.Y--
	case South:
		c.Y++
	case East:
		c.X++
	case West:
		c.X--
	default:
		return nil, Local
	}
	if n.cfg.Topology == TopologyTorus {
		c.X = (c.X + n.cfg.Width) % n.cfg.Width
		c.Y = (c.Y + n.cfg.Height) % n.cfg.Height
	}
	if !n.valid(c) {
		return nil, Local
	}
	var inPort Port
	switch out {
	case North:
		inPort = South
	case South:
		inPort = North
	case East:
		inPort = West
	case West:
		inPort = East
	}
	return n.routerAt(c), inPort
}

// freeSlots returns the total free buffer space at an input port of a
// router (the congestion signal adaptive routing selects by).
func (n *Network) freeSlots(r *router, p Port) int {
	sum := 0
	for v := range r.in[p] {
		vc := &r.in[p][v]
		sum += vc.cap - vc.len() - vc.incoming
	}
	return sum
}

// Step advances the network one clock cycle: route computation, VC
// allocation and switch traversal for every router, applied atomically.
//
//potlint:allocfree
func (n *Network) Step() {
	n.moves = n.moves[:0]
	for _, vc := range n.touched {
		vc.incoming = 0
	}
	n.touched = n.touched[:0]

	for _, r := range n.routers {
		if r.buffered == 0 {
			continue
		}
		// Route + VC allocation for heads at the front of their VCs,
		// collecting each routed VC as a request for its output port.
		for out := range n.requests {
			n.requests[out] = n.requests[out][:0]
		}
		idx := 0
		for p := Port(0); p < numPorts; p++ {
			for v := range r.in[p] {
				n.allocateVC(r, p, v)
				if vc := &r.in[p][v]; !vc.empty() && vc.outPort >= 0 {
					n.requests[vc.outPort] = append(n.requests[vc.outPort], request{idx, p, v})
				}
				idx++
			}
		}
		// Switch allocation: one flit per output physical channel.
		for out := Port(0); out < numPorts; out++ {
			n.allocateSwitch(r, out, n.requests[out])
		}
	}
	// Apply staged moves.
	for _, m := range n.moves {
		src := &m.from.in[m.fromPort][m.fromVC]
		f := src.pop()
		m.from.buffered--
		if f.IsTail {
			src.reset()
		}
		if m.to == nil {
			// Ejection at destination.
			n.flitsEjected++
			if f.IsTail {
				pkt := f.pkt
				pkt.DeliveredAt = n.cycle + 1 // tail leaves at end of cycle
				n.delivered = append(n.delivered, pkt)
				n.inflight--
			}
		} else {
			m.to.in[m.toPort][m.toVC].push(f)
			m.to.buffered++
			n.flitsMoved++
			n.linkFlits[m.from.at.Y*n.cfg.Width+m.from.at.X][m.outPort]++
		}
	}
	n.cycle++
}

// allocateVC performs route computation and downstream VC allocation for
// the packet occupying input VC (p, v) of router r, if needed.
func (n *Network) allocateVC(r *router, p Port, v int) {
	vc := &r.in[p][v]
	if vc.empty() {
		return
	}
	f := vc.front()
	if !f.IsHead {
		return // body flits inherit the established state
	}
	if vc.owner < 0 {
		vc.owner = f.PacketID
	}
	if vc.outPort < 0 {
		// Route computation: pick among allowed candidates the one whose
		// downstream input port has the most free space.
		cands, count := n.routeCandidates(r.at, f.Dst)
		best := Port(-1)
		bestFree := -1
		for _, c := range cands[:count] {
			if c == Local {
				best = Local
				break
			}
			down, downPort := n.neighbour(r, c)
			if down == nil {
				continue
			}
			free := n.freeSlots(down, downPort)
			if free > bestFree {
				bestFree = free
				best = c
			}
		}
		if best < 0 {
			return // no viable candidate this cycle (should not happen)
		}
		vc.outPort = best
	}
	if vc.outVC < 0 && vc.outPort != Local {
		// VC allocation: reserve a free downstream VC within the
		// packet's dateline class.
		down, downPort := n.neighbour(r, vc.outPort)
		if down == nil {
			return
		}
		lo, hi := 0, len(down.in[downPort])
		if n.cfg.Topology == TopologyTorus {
			lo, hi = vcRange(n.datelineClass(r, vc.outPort, f), hi)
		}
		for w := lo; w < hi; w++ {
			if down.in[downPort][w].owner < 0 {
				down.in[downPort][w].owner = f.PacketID
				vc.outVC = w
				break
			}
		}
	}
}

// allocateSwitch picks one of reqs, the requests for output port out of
// router r, to send a flit through out this cycle, staging the move.
// Arbitration is round-robin over flattened candidates from rr[out]. No
// VC's occupancy or route changes during allocation and reqs ascends, so
// visiting it from the first index at or after rr[out], wrapping, visits
// the requesters in the order a scan of every candidate would.
func (n *Network) allocateSwitch(r *router, out Port, reqs []request) {
	if len(reqs) == 0 {
		return
	}
	downstream, downPort := n.neighbour(r, out)
	if out != Local && downstream == nil {
		return // edge of the mesh; legal routes never request it
	}
	first := 0
	for first < len(reqs) && reqs[first].idx < r.rr[out] {
		first++
	}
	for k := range reqs {
		rq := reqs[(first+k)%len(reqs)]
		idx, p, v := rq.idx, rq.port, rq.vc
		vc := &r.in[p][v]
		if out == Local {
			n.moves = append(n.moves, move{
				from: r, fromPort: p, fromVC: v, outPort: out, to: nil,
			})
			r.rr[out] = (idx + 1) % r.vcTotal
			return
		}
		if vc.outVC < 0 {
			continue // waiting for VC allocation
		}
		dst := &downstream.in[downPort][vc.outVC]
		if dst.len()+dst.incoming >= dst.cap {
			continue // no credit
		}
		if dst.incoming == 0 {
			n.touched = append(n.touched, dst)
		}
		dst.incoming++
		n.moves = append(n.moves, move{
			from: r, fromPort: p, fromVC: v, outPort: out,
			to: downstream, toPort: downPort, toVC: vc.outVC,
		})
		r.rr[out] = (idx + 1) % r.vcTotal
		return
	}
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

// Delivered returns the delivered packets still retained (shared slice;
// do not modify). Packets handed back via ReleaseDelivered are absent.
func (n *Network) Delivered() []*Packet { return n.delivered }

// ReleaseDelivered recycles the oldest k delivered packets: their
// latency and hop counts fold into the streaming aggregates Summarise
// reports, and their structs return to the injection freelist. A
// consumer that drains deliveries incrementally (DeliveredSince) calls
// this after processing a batch, making unbounded co-simulations run
// in bounded memory with alloc-free injection. Released packets must
// no longer be dereferenced — the structs are overwritten by later
// Injects.
func (n *Network) ReleaseDelivered(k int) {
	if k > len(n.delivered) {
		k = len(n.delivered)
	}
	if k <= 0 {
		return
	}
	for _, p := range n.delivered[:k] {
		l := p.Latency()
		n.relCount++
		n.relLatSum += l
		n.relHopSum += int64(n.cfg.Hops(p.Src, p.Dst))
		if l > n.relMaxLat {
			n.relMaxLat = l
		}
		n.free = append(n.free, p)
	}
	rest := copy(n.delivered, n.delivered[k:])
	n.delivered = n.delivered[:rest]
	n.delivBase += k
}

// Stats summarises delivered traffic.
type Stats struct {
	Delivered    int
	MeanLatency  float64 // cycles
	P95Latency   int64
	MaxLatency   int64
	MeanHops     float64
	FlitsMoved   int64
	FlitsEjected int64
	// ThroughputFPC is accepted traffic in flits per cycle per node.
	ThroughputFPC float64
}

// Summarise computes delivery statistics over the run so far. Counts,
// means and the maximum are exact even when packets have been handed
// back via ReleaseDelivered (their contributions stream into running
// aggregates); P95Latency is computed over the retained packets only,
// so standalone studies that want an exact percentile (RunLoadPoint)
// simply never release.
func (n *Network) Summarise() Stats {
	var s Stats
	s.FlitsMoved = n.flitsMoved
	s.FlitsEjected = n.flitsEjected
	total := n.relCount + int64(len(n.delivered))
	if total == 0 {
		return s
	}
	lat := make([]int64, 0, len(n.delivered))
	latSum, hopSum := n.relLatSum, n.relHopSum
	s.MaxLatency = n.relMaxLat
	for _, p := range n.delivered {
		l := p.Latency()
		lat = append(lat, l)
		latSum += l
		hopSum += int64(n.cfg.Hops(p.Src, p.Dst))
		if l > s.MaxLatency {
			s.MaxLatency = l
		}
	}
	s.Delivered = int(total)
	s.MeanLatency = float64(latSum) / float64(total)
	s.MeanHops = float64(hopSum) / float64(total)
	if len(lat) > 0 {
		// nth percentile without sorting the caller's data.
		sorted := make([]int64, len(lat))
		copy(sorted, lat)
		insertionSort(sorted)
		s.P95Latency = sorted[(len(sorted)*95)/100]
	}
	if n.cycle > 0 {
		nodes := float64(n.cfg.Width * n.cfg.Height)
		s.ThroughputFPC = float64(n.flitsEjected) / float64(n.cycle) / nodes
	}
	return s
}

func insertionSort(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// LinkLoad describes traffic over one unidirectional mesh link.
type LinkLoad struct {
	From  Coord
	Dir   Port // East/West/North/South out of From
	Flits int64
	// Utilization is flits per cycle over the run so far, in [0,1].
	Utilization float64
}

// LinkLoads returns the traffic of every mesh link (local ejection ports
// excluded), ordered row-major by source router then by port.
func (n *Network) LinkLoads() []LinkLoad {
	var out []LinkLoad
	for i, r := range n.routers {
		for p := North; p < numPorts; p++ {
			if down, _ := n.neighbour(r, p); down == nil {
				continue // mesh edge
			}
			flits := n.linkFlits[i][p]
			ll := LinkLoad{From: r.at, Dir: p, Flits: flits}
			if n.cycle > 0 {
				ll.Utilization = float64(flits) / float64(n.cycle)
			}
			out = append(out, ll)
		}
	}
	return out
}

// HottestLink returns the most utilised link; ok is false before any
// traffic has moved.
func (n *Network) HottestLink() (LinkLoad, bool) {
	loads := n.LinkLoads()
	var best LinkLoad
	found := false
	for _, l := range loads {
		if l.Flits > best.Flits {
			best = l
			found = true
		}
	}
	return best, found
}

// MeanLinkUtilization averages utilisation over all mesh links.
func (n *Network) MeanLinkUtilization() float64 {
	loads := n.LinkLoads()
	if len(loads) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range loads {
		sum += l.Utilization
	}
	return sum / float64(len(loads))
}

// AdvanceTo advances the router clock to the given absolute cycle,
// fast-skipping spans where no packet is in flight (co-simulation with a
// coarser-grained system clock).
func (n *Network) AdvanceTo(cycle int64) {
	for n.cycle < cycle {
		if n.inflight == 0 {
			n.cycle = cycle
			return
		}
		n.Step()
	}
}

// DeliveredSince returns packets delivered at or after absolute
// delivery index cursor, for incremental consumption; pass len of the
// previous result plus the previous cursor as the next cursor. The
// cursor survives ReleaseDelivered: releasing already-consumed
// packets never shifts what an up-to-date consumer sees next.
func (n *Network) DeliveredSince(cursor int) []*Packet {
	rel := cursor - n.delivBase
	if rel < 0 {
		rel = 0 // those packets were released; the consumer saw them already
	}
	if rel >= len(n.delivered) {
		return nil
	}
	return n.delivered[rel:]
}

// routeTorusXY is dimension-ordered routing on the torus: each dimension
// takes its shortest direction around the ring (ties break positive).
func (n *Network) routeTorusXY(at, dst Coord) Port {
	if at.X != dst.X {
		fwd := (dst.X - at.X + n.cfg.Width) % n.cfg.Width // hops going east
		if fwd <= n.cfg.Width-fwd {
			return East
		}
		return West
	}
	if at.Y != dst.Y {
		fwd := (dst.Y - at.Y + n.cfg.Height) % n.cfg.Height // hops going south
		if fwd <= n.cfg.Height-fwd {
			return South
		}
		return North
	}
	return Local
}

// datelineClass returns the VC class (0 or 1) a packet must use on the
// channel entered through 'out' of router r, under the Dally-Seitz
// dateline scheme: a packet starts each dimension in class 0 and switches
// to class 1 once its path crosses the dimension's wraparound link, which
// breaks the ring's cyclic channel dependency.
func (n *Network) datelineClass(r *router, out Port, f *Flit) int {
	if n.cfg.Topology != TopologyTorus {
		return 0
	}
	switch out {
	case East: // dateline between x = W-1 and x = 0
		if r.at.X == n.cfg.Width-1 || wrappedEast(f.Src.X, r.at.X, f.Dst.X, n.cfg.Width) {
			return 1
		}
	case West: // dateline between x = 0 and x = W-1
		if r.at.X == 0 || wrappedWest(f.Src.X, r.at.X, f.Dst.X, n.cfg.Width) {
			return 1
		}
	case South: // dateline between y = H-1 and y = 0
		if r.at.Y == n.cfg.Height-1 || wrappedEast(f.Src.Y, r.at.Y, f.Dst.Y, n.cfg.Height) {
			return 1
		}
	case North: // dateline between y = 0 and y = H-1
		if r.at.Y == 0 || wrappedWest(f.Src.Y, r.at.Y, f.Dst.Y, n.cfg.Height) {
			return 1
		}
	}
	return 0
}

// wrappedEast reports whether a minimal eastward (increasing, modular)
// walk from src to cur has already crossed the size-1 -> 0 link.
func wrappedEast(src, cur, dst, size int) bool {
	walked := (cur - src + size) % size
	return cur < src && walked > 0 && walked <= (dst-src+size)%size
}

// wrappedWest reports whether a minimal westward (decreasing, modular)
// walk from src to cur has already crossed the 0 -> size-1 link.
func wrappedWest(src, cur, dst, size int) bool {
	walked := (src - cur + size) % size
	return cur > src && walked > 0 && walked <= (src-dst+size)%size
}

// vcRange returns the half-open VC index range a packet of the given
// dateline class may use at an input port with v VCs: class 0 gets the
// lower half (plus the spare middle VC for odd counts), class 1 the upper.
func vcRange(class, v int) (int, int) {
	if class == 0 {
		return 0, (v + 1) / 2
	}
	return (v + 1) / 2, v
}
