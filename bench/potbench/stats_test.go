package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	asc := []float64{10, 20, 30, 40}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20}, {0.9, 37},
	} {
		if got := quantile(asc, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no data should be NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 0.99, true}, // 1000 beyond p99
		{1000, 0.99, true},   // exactly 10 beyond p99
		{999, 0.9, true},     // 9.99 beyond p99 is too few
		{100, 0.9, true},     // exactly 10 beyond p90
		{99, 0, false},       // not even p90
	} {
		got, ok := tailQuantile(c.n, 0.99, 0.9)
		if got != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}}, // Python extrapolates

	} {
		q1, med, q3 := quartiles(c.data)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
}
