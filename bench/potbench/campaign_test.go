package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"potsim/internal/dse"
)

func TestCampaignSpecSeedOneIsTheReference(t *testing.T) {
	got, err := dse.ParseSpec(campaignSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	want := &dse.Spec{
		Name:            "potbench-1",
		Meshes:          []string{"8x8"},
		Nodes:           []string{"22nm", "16nm"},
		TDPFractions:    []float64{0.25, 0.35, 0.5},
		BaseIntervalsMS: []float64{20, 50},
		Policies:        []string{"pots", "naive", "notest"},
		Seeds:           2,
		HorizonMS:       60,
		Screen:          &dse.ScreenSpec{HorizonMS: 15, KeepRanks: 2},
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("seed 1 spec\n got %s\nwant %s", g, w)
	}
}

func TestCampaignSpecsParseAndDifferBySeed(t *testing.T) {
	seen := map[string]uint64{}
	for seed := uint64(1); seed <= 50; seed++ {
		blob := campaignSpec(seed)
		spec, err := dse.ParseSpec(blob)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if string(blob) != string(campaignSpec(seed)) {
			t.Fatalf("seed %d: spec is not a function of the seed", seed)
		}
		if spec.MeanInterarrivalMS != 0 && (spec.MeanInterarrivalMS < 1.94 || spec.MeanInterarrivalMS > 2.06) {
			t.Errorf("seed %d: interarrival %v ms is more than 3%% off the reference", seed, spec.MeanInterarrivalMS)
		}
		spec.Name = ""
		key, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[string(key)]; dup {
			t.Errorf("seeds %d and %d generate the same campaign", prev, seed)
		}
		seen[string(key)] = seed
	}
	if _, err := dse.ParseSpec([]byte(campaignCheckSpec)); err != nil {
		t.Fatalf("check spec: %v", err)
	}
}
