package noc

import (
	"fmt"
	"testing"
)

// TestSaturatedLoadPointsMatchRecorded pins switch arbitration: at a
// saturating offered load, where several VCs compete for each output
// port every cycle, the delivery statistics must equal the values
// recorded when switch allocation still scanned all (input port, VC)
// candidates of a router for each output port. Visiting any two
// competing candidates in another order moves them.
func TestSaturatedLoadPointsMatchRecorded(t *testing.T) {
	const (
		seed            = 5
		rate            = 0.6
		size            = 4
		warmup, measure = 200, 800
	)
	cases := []struct {
		topo  Topology
		vcs   int
		stats string
	}{
		{TopologyMesh, 1,
			"{Delivered:2326 MeanLatency:216.95012897678419 P95Latency:600 MaxLatency:707 MeanHops:2.6444539982803095 FlitsMoved:24604 FlitsEjected:9304 ThroughputFPC:0.36641461877756776}"},
		{TopologyMesh, 2,
			"{Delivered:2326 MeanLatency:32.40799656061909 P95Latency:108 MaxLatency:182 MeanHops:2.6444539982803095 FlitsMoved:24604 FlitsEjected:9304 ThroughputFPC:0.5100877192982456}"},
		{TopologyMesh, 3,
			"{Delivered:2326 MeanLatency:24.810404127257094 P95Latency:69 MaxLatency:183 MeanHops:2.6444539982803095 FlitsMoved:24604 FlitsEjected:9304 ThroughputFPC:0.535451197053407}"},
		{TopologyTorus, 2,
			"{Delivered:2326 MeanLatency:155.9608770421324 P95Latency:613 MaxLatency:724 MeanHops:2.1061908856405847 FlitsMoved:19596 FlitsEjected:9304 ThroughputFPC:0.3589506172839506}"},
		{TopologyTorus, 3,
			"{Delivered:2326 MeanLatency:56.43078245915735 P95Latency:254 MaxLatency:429 MeanHops:2.1061908856405847 FlitsMoved:19596 FlitsEjected:9304 ThroughputFPC:0.4626093874303898}"},
	}
	for _, c := range cases {
		cfg := DefaultConfig(4, 4)
		cfg.Topology, cfg.VirtualChannels = c.topo, c.vcs
		t.Run(fmt.Sprintf("%v/xy/%dvc", c.topo, c.vcs), func(t *testing.T) {
			st, err := RunLoadPoint(cfg, seed, rate, size, warmup, measure)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%+v", st); got != c.stats {
				t.Errorf("load point moved:\n got %s\nwant %s", got, c.stats)
			}
		})
	}
}
