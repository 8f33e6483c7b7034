package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything: with fewer, the "p99" of a run is
// just its few slowest outliers.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of ascending data by
// linear interpolation between the two closest ranks. It is NaN for
// empty data.
func quantile(asc []float64, q float64) float64 {
	switch len(asc) {
	case 0:
		return math.NaN()
	case 1:
		return asc[0]
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	if lo >= len(asc)-1 {
		return asc[len(asc)-1]
	}
	frac := pos - float64(lo)
	return asc[lo] + frac*(asc[lo+1]-asc[lo])
}

// mean is the arithmetic mean; NaN for empty data.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median is the 0.5-quantile of unsorted data.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailQuantile picks, from qs in descending order, the highest quantile
// that leaves at least minBeyond of n samples above it.
func tailQuantile(n int, qs ...float64) (float64, bool) {
	for _, q := range qs {
		if float64(n)*(1-q) >= minBeyond-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(data, n=4) does (its default
// "exclusive" method), so spreads computed here match the ones an
// outside checker computes from the same values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := sorted(xs)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}
