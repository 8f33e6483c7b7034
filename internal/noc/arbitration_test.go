package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"potsim/internal/sim"
)

// TestSaturatedLoadPointsMatchRecorded pins switch arbitration: at a
// saturating offered load, where several VCs compete for each output
// port every cycle, the delivery statistics and every link's flit count
// must equal the values recorded when switch allocation still scanned
// all (input port, VC) candidates of a router for each output port.
// Visiting any two competing candidates in another order moves them.
func TestSaturatedLoadPointsMatchRecorded(t *testing.T) {
	const (
		seed            = 5
		rate            = 0.6
		size            = 4
		warmup, measure = 200, 800
	)
	cases := []struct {
		topo    Topology
		routing Routing
		vcs     int
		stats   string
		links   string // sha256 of the LinkLoads flit counts, in order
	}{
		{TopologyMesh, RoutingXY, 1,
			"{Delivered:2326 MeanLatency:216.95012897678419 P95Latency:600 MaxLatency:707 MeanHops:2.6444539982803095 FlitsMoved:24604 FlitsEjected:9304 ThroughputFPC:0.36641461877756776}",
			"25f6a4294e6638d09fd5025da591dbcb2c09cf1e0b996c465e96f1b9b423a320"},
		{TopologyMesh, RoutingXY, 2,
			"{Delivered:2326 MeanLatency:32.40799656061909 P95Latency:108 MaxLatency:182 MeanHops:2.6444539982803095 FlitsMoved:24604 FlitsEjected:9304 ThroughputFPC:0.5100877192982456}",
			"25f6a4294e6638d09fd5025da591dbcb2c09cf1e0b996c465e96f1b9b423a320"},
		{TopologyMesh, RoutingXY, 3,
			"{Delivered:2326 MeanLatency:24.810404127257094 P95Latency:69 MaxLatency:183 MeanHops:2.6444539982803095 FlitsMoved:24604 FlitsEjected:9304 ThroughputFPC:0.535451197053407}",
			"25f6a4294e6638d09fd5025da591dbcb2c09cf1e0b996c465e96f1b9b423a320"},
		{TopologyMesh, RoutingWestFirst, 1,
			"{Delivered:2102 MeanLatency:415.15746907706944 P95Latency:1027 MaxLatency:1585 MeanHops:2.6141769743101806 FlitsMoved:22023 FlitsEjected:8413 ThroughputFPC:0.29211805555555553}",
			"bed708c35ea0b01f9fac0cce2c256bcdb27fb810c154e7b26184c1e2c006747f"},
		{TopologyMesh, RoutingWestFirst, 2,
			"{Delivered:2326 MeanLatency:29.866294067067926 P95Latency:81 MaxLatency:173 MeanHops:2.6444539982803095 FlitsMoved:24604 FlitsEjected:9304 ThroughputFPC:0.5164298401420959}",
			"e2e287e7ccef9fb91d2c1af7aa16dc0c15ceb8eb5530f2f893b10f96621815ef"},
		{TopologyMesh, RoutingWestFirst, 3,
			"{Delivered:2326 MeanLatency:25.844797936371453 P95Latency:64 MaxLatency:178 MeanHops:2.6444539982803095 FlitsMoved:24604 FlitsEjected:9304 ThroughputFPC:0.522931654676259}",
			"9562c69756291416853fc863227e9e320710452edcf3d43ffb79fc9017c2e8fd"},
		{TopologyTorus, RoutingXY, 2,
			"{Delivered:2326 MeanLatency:155.9608770421324 P95Latency:613 MaxLatency:724 MeanHops:2.1061908856405847 FlitsMoved:19596 FlitsEjected:9304 ThroughputFPC:0.3589506172839506}",
			"4c18be10f4b3821b79117187d545e42782a6faa98a1dd9abcfe9ebf361f82cec"},
		{TopologyTorus, RoutingXY, 3,
			"{Delivered:2326 MeanLatency:56.43078245915735 P95Latency:254 MaxLatency:429 MeanHops:2.1061908856405847 FlitsMoved:19596 FlitsEjected:9304 ThroughputFPC:0.4626093874303898}",
			"4c18be10f4b3821b79117187d545e42782a6faa98a1dd9abcfe9ebf361f82cec"},
	}
	for _, c := range cases {
		cfg := DefaultConfig(4, 4)
		cfg.Topology, cfg.Routing, cfg.VirtualChannels = c.topo, c.routing, c.vcs
		t.Run(fmt.Sprintf("%v/%v/%dvc", c.topo, c.routing, c.vcs), func(t *testing.T) {
			// RunLoadPoint's loop, kept open so the links can be read.
			net, err := NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := NewGenerator(net, Uniform, sim.NewRNG(seed).Stream("noc-traffic"), rate, size)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < warmup+measure; i++ {
				if err := gen.Tick(); err != nil {
					t.Fatal(err)
				}
				net.Step()
			}
			net.RunUntilDrained(measure)
			st := net.Summarise()
			if lp, err := RunLoadPoint(cfg, Uniform, seed, rate, size, warmup, measure); err != nil || lp != st {
				t.Fatalf("RunLoadPoint = %+v, %v; the same loop gave %+v", lp, err, st)
			}
			var counts []int64
			for _, l := range net.LinkLoads() {
				counts = append(counts, l.Flits)
			}
			sum := sha256.Sum256([]byte(fmt.Sprint(counts)))
			gotStats, gotLinks := fmt.Sprintf("%+v", st), hex.EncodeToString(sum[:])
			if gotStats != c.stats || gotLinks != c.links {
				t.Errorf("load point moved:\n got stats %s\n      links %s\nwant stats %s\n      links %s",
					gotStats, gotLinks, c.stats, c.links)
			}
		})
	}
}
