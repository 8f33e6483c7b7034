package dse

import (
	"path/filepath"
	"strings"
	"testing"

	"potsim/internal/sim"
)

// fromMS converts milliseconds of simulated time for test specs.
func fromMS(ms float64) sim.Time { return sim.FromSeconds(ms / 1000) }

func validSpecJSON() string {
	return `{
  "name": "t",
  "meshes": ["4x4", "8x8"],
  "nodes": ["16nm"],
  "tdpFractions": [0.4],
  "baseIntervalsMS": [20],
  "policies": ["pots", "notest"],
  "seeds": 2,
  "horizonMS": 40
}`
}

func TestParseSpecAcceptsValid(t *testing.T) {
	s, err := ParseSpec([]byte(validSpecJSON()))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	sp, err := NewSpace(s)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	if got := sp.Count(); got != 2*1*1*1*2*2 {
		t.Fatalf("Count() = %d, want 8", got)
	}

	// Every shipped campaign spec must load too.
	shipped, err := filepath.Glob(filepath.Join("..", "..", "configs", "campaign-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(shipped) == 0 {
		t.Fatal("no configs/campaign-*.json found")
	}
	for _, path := range append(shipped, filepath.Join("..", "..", "configs", "sweep-16nm.json")) {
		if _, err := LoadSpec(path); err != nil {
			t.Errorf("shipped spec rejected: %v", err)
		}
	}
}

func TestParseSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown field", `{"name":"t","mehses":["4x4"]}`, "unknown field"},
		{"trailing content", validSpecJSON() + `{"again":1}`, "trailing content"},
		{"bad mesh", strings.Replace(validSpecJSON(), `"4x4"`, `"4by4"`, 1), "not WxH"},
		{"oversized mesh", strings.Replace(validSpecJSON(), `"4x4"`, `"65x65"`, 1), "range"},
		{"undersized mesh", strings.Replace(validSpecJSON(), `"4x4"`, `"2x2"`, 1), "too small"},
		{"bad node", strings.Replace(validSpecJSON(), `"16nm"`, `"13nm"`, 1), "13nm"},
		{"bad policy", strings.Replace(validSpecJSON(), `"pots"`, `"potz"`, 1), "unknown test policy"},
		{"tdp zero", strings.Replace(validSpecJSON(), `[0.4]`, `[0]`, 1), "(0, 1]"},
		{"tdp above one", strings.Replace(validSpecJSON(), `[0.4]`, `[1.5]`, 1), "(0, 1]"},
		{"negative interval", strings.Replace(validSpecJSON(), `[20]`, `[-1]`, 1), "positive"},
		{"zero seeds", strings.Replace(validSpecJSON(), `"seeds": 2`, `"seeds": 0`, 1), "seeds"},
		{"no horizon", strings.Replace(validSpecJSON(), `"horizonMS": 40`, `"horizonMS": 0`, 1), "horizonMS"},
		{"no name", strings.Replace(validSpecJSON(), `"name": "t"`, `"name": ""`, 1), "name"},
		{"empty axis", strings.Replace(validSpecJSON(), `["16nm"]`, `[]`, 1), "at least one value"},
		{"bad mapper", strings.Replace(validSpecJSON(), `"horizonMS": 40`, `"horizonMS": 40, "mapper": "XY"`, 1), "mapper"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(c.json))
			if err == nil {
				t.Fatalf("spec accepted, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestSpecScreenValidation(t *testing.T) {
	s, err := ParseSpec([]byte(validSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	s.Screen = &ScreenSpec{HorizonMS: 40}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "shorter") {
		t.Fatalf("screen horizon == full horizon accepted: %v", err)
	}
	s.Screen = &ScreenSpec{HorizonMS: 10, KeepRanks: -1}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "keepRanks") {
		t.Fatalf("negative keepRanks accepted: %v", err)
	}
	s.Screen = &ScreenSpec{HorizonMS: 10}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid screen rejected: %v", err)
	}
	if got := s.keepRanks(); got != 2 {
		t.Fatalf("default keepRanks = %d, want 2", got)
	}
}

func TestSpecCellCountBound(t *testing.T) {
	s, err := ParseSpec([]byte(validSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	s.Seeds = MaxCampaignCells // 8 axes values x 16M seeds overflows the bound
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "maxCells") {
		t.Fatalf("oversized campaign accepted: %v", err)
	}
	s.Seeds = 2
	s.MaxCells = 4 // below the 8 cells this spec enumerates
	if err := s.Validate(); err == nil {
		t.Fatal("campaign above explicit maxCells accepted")
	}
}

func TestFingerprintTracksContent(t *testing.T) {
	a, err := ParseSpec([]byte(validSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec([]byte(validSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := b.Fingerprint()
	if fa != fb {
		t.Fatalf("identical specs fingerprint differently: %s vs %s", fa, fb)
	}
	b.Seeds = 3
	fb2, _ := b.Fingerprint()
	if fa == fb2 {
		t.Fatal("changed spec kept the same fingerprint")
	}
}

func TestSpaceEnumerationRoundTrip(t *testing.T) {
	s, err := ParseSpec([]byte(`{
  "name": "rt",
  "meshes": ["4x4", "8x4", "4x8"],
  "nodes": ["45nm", "16nm"],
  "tdpFractions": [0.3, 0.6],
  "baseIntervalsMS": [10, 50],
  "policies": ["pots", "naive", "notest"],
  "seeds": 3,
  "horizonMS": 40
}`))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpace(s)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(3 * 2 * 2 * 2 * 3 * 3)
	if sp.Count() != want {
		t.Fatalf("Count() = %d, want %d", sp.Count(), want)
	}
	seen := make(map[string]int64, want)
	for i := int64(0); i < sp.Count(); i++ {
		p := sp.Point(i)
		if p.Index != i {
			t.Fatalf("Point(%d).Index = %d", i, p.Index)
		}
		if p.Seed < 1 || p.Seed > 3 {
			t.Fatalf("Point(%d).Seed = %d outside 1..3", i, p.Seed)
		}
		lbl := p.Label()
		if prev, dup := seen[lbl]; dup {
			t.Fatalf("cells %d and %d share label %q", prev, i, lbl)
		}
		seen[lbl] = i
	}
	// Seed is the fastest axis: consecutive cells differ only in seed.
	p0, p1 := sp.Point(0), sp.Point(1)
	if p0.Seed+1 != p1.Seed || p0.Mesh != p1.Mesh || p0.Policy != p1.Policy {
		t.Fatalf("seed is not the fastest axis: %v then %v", p0.Label(), p1.Label())
	}
}

func TestSpaceConfigScalesWithMesh(t *testing.T) {
	s, err := ParseSpec([]byte(validSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpace(s)
	if err != nil {
		t.Fatal(err)
	}
	horizon := fromMS(s.HorizonMS)
	var small, large bool
	for i := int64(0); i < sp.Count(); i++ {
		p := sp.Point(i)
		cfg := sp.Config(p, horizon)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("cell %s config invalid: %v", p.Label(), err)
		}
		switch p.Mesh {
		case "4x4":
			small = true
			if cfg.Mix.EmbeddedShare == 0 {
				t.Fatal("4x4 mesh should keep the embedded mix (16 cores fit VOPD)")
			}
		case "8x8":
			large = true
		}
	}
	if !small || !large {
		t.Fatal("enumeration missed a mesh")
	}
	// Arrivals scale inversely with core count: 4x4 sees 4x the
	// interarrival of 8x8.
	c44 := sp.Config(Point{W: 4, H: 4, Node: sp.nodes[0], TDPFraction: 0.4, BaseInterval: fromMS(20), Policy: "pots", Seed: 1}, horizon)
	c88 := sp.Config(Point{W: 8, H: 8, Node: sp.nodes[0], TDPFraction: 0.4, BaseInterval: fromMS(20), Policy: "pots", Seed: 1}, horizon)
	if c44.MeanInterarrival != 4*c88.MeanInterarrival {
		t.Fatalf("interarrival scaling: 4x4=%v 8x8=%v", c44.MeanInterarrival, c88.MeanInterarrival)
	}
}
