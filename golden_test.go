package potsim_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"potsim/internal/core"
	"potsim/internal/dse"
	"potsim/internal/expt"
	"potsim/internal/sim"
)

// TestBenchmarkGoldenDigests recomputes the output digests that the
// benchmark module pins in bench/potbench/golden.json, so a plain
// `go test ./...` fails when a simulation's report, a campaign frontier
// or a quick-suite table moves. The file is only read.
func TestBenchmarkGoldenDigests(t *testing.T) {
	raw, err := os.ReadFile("bench/potbench/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	checked := map[string]bool{}
	check := func(key string, out []byte) {
		t.Helper()
		checked[key] = true
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != golden[key] {
			t.Errorf("%s: digest %.16s, golden.json has %.16s", key, got, golden[key])
		}
	}

	// The sim workloads: the report of the default seed at the check
	// horizon, and of seed 1 at the horizon of one timed unit.
	mesh32 := core.DefaultConfig() // E19 scaling: arrivals and bandwidth grow with cores
	mesh32.Width, mesh32.Height = 32, 32
	mesh32.MeanInterarrival = sim.Time(int64(2*sim.Millisecond) * 64 / int64(mesh32.Cores()))
	mesh32.MemCapacityHz *= float64(mesh32.Cores()) / 64
	sims := []struct {
		name         string
		cfg          core.Config
		check, seed1 sim.Time
	}{
		{"sim-8x8", core.DefaultConfig(), 50 * sim.Millisecond, sim.Second},
		{"mesh-32x32", mesh32, 10 * sim.Millisecond, 200 * sim.Millisecond},
	}
	for _, w := range sims {
		for _, run := range []struct {
			key     string
			horizon sim.Time
			seed    uint64
		}{{"/check", w.check, w.cfg.Seed}, {"/seed1", w.seed1, 1}} {
			cfg := w.cfg
			cfg.Horizon, cfg.Seed = run.horizon, run.seed
			sys, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sys.Run()
			if err != nil {
				t.Fatalf("%s%s: %v", w.name, run.key, err)
			}
			if err := rep.Sanity(); err != nil {
				t.Fatalf("%s%s: %v", w.name, run.key, err)
			}
			blob, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			check(w.name+run.key, blob)
		}
	}

	// The campaign workload: the frontier of its fixed check campaign and
	// of its seed-1 campaign, specs as bench/potbench/campaign.go writes
	// them.
	for _, c := range []struct{ key, spec string }{
		{"campaign/check", `{"name":"potbench-check","meshes":["8x8"],"nodes":["16nm"],` +
			`"tdpFractions":[0.35,0.5],"baseIntervalsMS":[20],"policies":["pots","notest"],` +
			`"seeds":2,"horizonMS":40,"screen":{"horizonMS":10,"keepRanks":1}}`},
		{"campaign/seed1", `{"name":"potbench-1","meshes":["8x8"],"nodes":["22nm","16nm"],` +
			`"tdpFractions":[0.25,0.35,0.5],"baseIntervalsMS":[20,50],"policies":["pots","naive","notest"],` +
			`"seeds":2,"horizonMS":60,"screen":{"horizonMS":15,"keepRanks":2}}`},
	} {
		spec, err := dse.ParseSpec([]byte(c.spec))
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&dse.Engine{Spec: spec, Dir: t.TempDir(), Workers: 2}).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		check(c.key, []byte(res.CSV()))
	}

	runner := &expt.Runner{Quick: true, Workers: 2}
	for _, id := range expt.IDs() {
		res, err := runner.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		check("quick-suite/"+id, []byte(res.Render()))
	}
	for key := range golden {
		if !checked[key] {
			t.Errorf("golden.json pins %s, which this test does not recompute", key)
		}
	}
}
