package main

import (
	"testing"
)

// bySeed gives value i to seed i+1.
func bySeed(xs ...float64) map[uint64][]float64 {
	out := map[uint64][]float64{}
	for i, x := range xs {
		out[uint64(i+1)] = []float64{x}
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	base := bySeed(100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100)
	for _, c := range []struct {
		name        string
		base, head  map[uint64][]float64
		lowerBetter bool
		bound       float64
		want        string
		wins, pairs int
	}{
		{"clear gain", base, bySeed(90, 91, 89, 90.5, 89.5, 90.2, 89.8, 90.1, 89.9, 90),
			true, 0.1, "improved", 10, 10},
		{"gain on a higher-is-better metric", base, bySeed(110, 111, 109, 110.5, 109.5, 110.2, 109.8, 110.1, 109.9, 110),
			false, 0.1, "improved", 10, 10},
		{"same code", base, bySeed(100.1, 100.9, 99.2, 100.4, 99.6, 100.1, 99.9, 100, 100, 100.1),
			true, 0.1, "unchanged", 4, 10},
		{"worse beyond the bound", base, bySeed(120, 121, 119, 120.5, 119.5, 120.2, 119.8, 120.1, 119.9, 120),
			true, 0.1, "regressed", 0, 10},
		{"worse within the bound", base, bySeed(103, 104, 102, 103.5, 102.5, 103.2, 102.8, 103.1, 102.9, 103),
			true, 0.1, "unchanged", 0, 10},
		// 8 of 10 wins is not enough for a gain, whatever the gap.
		{"too few wins", base, bySeed(90, 91, 89, 90.5, 89.5, 90.2, 89.8, 90.1, 130, 130),
			true, 0.5, "unchanged", 8, 10},
		{"five pairs are too few for a gain", bySeed(100, 101, 99, 100.5, 99.5),
			bySeed(90, 91, 89, 90.5, 89.5), true, 0.1, "unchanged", 5, 5},
		{"spread wider than the bound", bySeed(50, 150, 70, 130, 90, 110, 60, 140, 80, 120),
			bySeed(55, 140, 75, 125, 95, 105, 65, 135, 85, 115), true, 0.1, "unresolved", 5, 10},
	} {
		v := judge(c.base, c.head, c.lowerBetter, c.bound)
		if v.verdict != c.want || v.wins != c.wins || v.pairs != c.pairs {
			t.Errorf("%s: got %s with %d/%d wins, want %s with %d/%d", c.name, v.verdict, v.wins, v.pairs, c.want, c.wins, c.pairs)
		}
	}
}

func TestParseRunOutputSplitsMetricsNotesAndDigest(t *testing.T) {
	out := "op_ms_p50 1.5 ms\nhit_ms_p50 0.25 ms\ndedup_ms_p50 NaN ms\nspan x self_ms=1 count=2\ndigest abc\n" +
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"op_ms_p50":{"value":1.5,"unit":"ms"}}}` + "\n"
	rec, err := parseRunOutput([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Result.Correct || rec.Result.Attempted != 3 || rec.Result.Metrics["op_ms_p50"].Value != 1.5 {
		t.Errorf("result %+v", rec.Result)
	}
	if len(rec.Notes) != 1 || rec.Notes["hit_ms_p50"] != (metric{0.25, "ms"}) {
		t.Errorf("notes %+v, want only hit_ms_p50", rec.Notes)
	}
	if rec.Digest != "abc" {
		t.Errorf("digest %q", rec.Digest)
	}
}
