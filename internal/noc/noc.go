// Package noc implements the network-on-chip substrate: a flit-level
// cycle-driven simulator of a 2D mesh with five-port wormhole routers,
// dimension-ordered (XY) routing and credit-based flow control, together
// with an analytic transaction-level latency model calibrated against it.
// The manycore system uses the transaction model for long runs; the
// flit-level simulator validates it and backs the flit co-simulation
// mode (NoCMode "flit").
package noc

import (
	"fmt"
)

// Coord addresses a node in the mesh.
type Coord struct{ X, Y int }

// String renders the coordinate as "(x,y)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Hops returns the Manhattan distance to another node, the hop count of
// minimal dimension-ordered routing on an open mesh.
func (c Coord) Hops(o Coord) int {
	return abs(c.X-o.X) + abs(c.Y-o.Y)
}

// Hops returns the minimal hop count between two nodes under the
// configured topology (wraparound shortens paths on a torus).
func (cfg Config) Hops(a, b Coord) int {
	if cfg.Topology != TopologyTorus {
		return a.Hops(b)
	}
	dx := abs(a.X - b.X)
	if w := cfg.Width - dx; w < dx {
		dx = w
	}
	dy := abs(a.Y - b.Y)
	if h := cfg.Height - dy; h < dy {
		dy = h
	}
	return dx + dy
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Port indexes a router port.
type Port int

// Router ports: the local injection/ejection port and the four mesh
// directions.
const (
	Local Port = iota
	North
	East
	South
	West
	numPorts
)

// String returns the port name.
func (p Port) String() string {
	switch p {
	case Local:
		return "local"
	case North:
		return "north"
	case East:
		return "east"
	case South:
		return "south"
	case West:
		return "west"
	default:
		return fmt.Sprintf("port(%d)", int(p))
	}
}

// Topology selects the network shape.
type Topology int

// Available topologies.
const (
	// TopologyMesh is the open 2D mesh (no wraparound links).
	TopologyMesh Topology = iota
	// TopologyTorus adds wraparound links in both dimensions. Requires
	// at least two virtual channels: the dateline scheme switches a
	// packet to the upper VC class when it crosses the wraparound link,
	// breaking the ring's cyclic channel dependency (Dally-Seitz).
	TopologyTorus
)

// String returns the topology name.
func (t Topology) String() string {
	switch t {
	case TopologyMesh:
		return "mesh"
	case TopologyTorus:
		return "torus"
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// Config parameterises the mesh.
type Config struct {
	Width, Height int
	// Topology selects mesh (default) or torus.
	Topology Topology
	// BufferDepth is the per-VC FIFO capacity in flits.
	BufferDepth int
	// VirtualChannels is the VC count per input port (>= 1). Extra VCs
	// relieve head-of-line blocking under load.
	VirtualChannels int
	// ClockHz is the router clock; one flit traverses one link per cycle.
	ClockHz float64
}

// DefaultConfig returns the configuration the experiments use: one VC,
// 4-flit buffers, XY routing, routers clocked at 1 GHz.
func DefaultConfig(width, height int) Config {
	return Config{Width: width, Height: height, BufferDepth: 4,
		VirtualChannels: 1, ClockHz: 1e9}
}

// Validate checks the configuration.
func (cfg Config) Validate() error {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return fmt.Errorf("noc: invalid mesh %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.BufferDepth < 1 {
		return fmt.Errorf("noc: BufferDepth must be >= 1")
	}
	if cfg.VirtualChannels < 1 {
		return fmt.Errorf("noc: VirtualChannels must be >= 1")
	}
	switch cfg.Topology {
	case TopologyMesh:
	case TopologyTorus:
		if cfg.VirtualChannels < 2 {
			return fmt.Errorf("noc: torus needs >= 2 virtual channels (dateline classes)")
		}
	default:
		return fmt.Errorf("noc: unknown topology %d", cfg.Topology)
	}
	if cfg.ClockHz <= 0 {
		return fmt.Errorf("noc: ClockHz must be positive")
	}
	return nil
}

// Flit is the unit of flow control.
type Flit struct {
	PacketID int
	Src, Dst Coord
	Seq      int  // position within the packet
	IsHead   bool // head flit carries the route
	IsTail   bool
	// pkt is the tracking record, carried by the flit so tail ejection
	// settles the packet without a map lookup (and without the bucket
	// churn an insert/delete-cycled map allocates under).
	pkt *Packet
}

// Packet records one message through its lifetime.
type Packet struct {
	ID          int
	Src, Dst    Coord
	SizeFlits   int
	InjectedAt  int64 // cycle the head entered the source queue
	DeliveredAt int64 // cycle the tail was ejected (-1 while in flight)
}

// Latency returns the packet latency in cycles, or -1 while in flight.
func (p *Packet) Latency() int64 {
	if p.DeliveredAt < 0 {
		return -1
	}
	return p.DeliveredAt - p.InjectedAt
}
