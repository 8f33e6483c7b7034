// Package metrics provides the small statistics toolkit the experiment
// harness reports with: streaming mean/variance, sample percentiles,
// fixed-width histograms, and ASCII/CSV table rendering.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Welford accumulates streaming mean and variance.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation in.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		w.min = math.Min(w.min, x)
		w.max = math.Max(w.max, x)
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 with no data).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the sample variance (0 with fewer than two points).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 with no data).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 with no data).
func (w *Welford) Max() float64 { return w.max }

// Percentile returns the p-th percentile (0..100) of samples using
// nearest-rank on a sorted copy. Empty input returns 0.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// Histogram counts observations in fixed-width buckets over [Lo, Hi);
// out-of-range values clamp into the edge buckets.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram allocates a histogram with the given bucket count.
func NewHistogram(lo, hi float64, buckets int) (*Histogram, error) {
	if buckets < 1 || hi <= lo {
		return nil, fmt.Errorf("metrics: invalid histogram [%v,%v) x%d", lo, hi, buckets)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, buckets)}, nil
}

// Add folds one observation in.
func (h *Histogram) Add(x float64) {
	idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() int { return h.total }

// BucketLabel returns a human-readable range label for bucket i.
func (h *Histogram) BucketLabel(i int) string {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return fmt.Sprintf("[%.3g,%.3g)", h.Lo+float64(i)*w, h.Lo+float64(i+1)*w)
}

// Render draws the histogram as ASCII bars.
func (h *Histogram) Render(width int) string {
	if width < 8 {
		width = 8
	}
	max := 0
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if max > 0 {
			bar = c * width / max
		}
		fmt.Fprintf(&b, "%16s %6d %s\n", h.BucketLabel(i), c, strings.Repeat("#", bar))
	}
	return b.String()
}

// Table collects experiment rows and renders them aligned or as CSV.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders floats compactly: integers without decimals,
// everything else with four significant digits.
func FormatFloat(v float64) string {
	//potlint:floateq exact is-integer test; Trunc returns v bit-identical for integral v, and NaN falls through to %g
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// Render returns the table as aligned ASCII text.
func (t *Table) Render() string {
	cols := len(t.Headers)
	widths := make([]int, cols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < cols && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV returns the table in comma-separated form (quotes are not needed
// for the numeric/identifier content the harness emits).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// ParetoMin marks the non-dominated points of a set under minimisation of
// every dimension: out[i] is true when no other point is at least as good
// in all dimensions and strictly better in one. Duplicate points are all
// kept. Points must share a dimensionality.
func ParetoMin(points [][]float64) ([]bool, error) {
	out := make([]bool, len(points))
	if len(points) == 0 {
		return out, nil
	}
	dim := len(points[0])
	for _, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("metrics: ragged pareto input")
		}
	}
	for i := range points {
		dominated := false
		for j := range points {
			if i == j {
				continue
			}
			allLeq, oneLess := true, false
			for d := 0; d < dim; d++ {
				if points[j][d] > points[i][d] {
					allLeq = false
					break
				}
				if points[j][d] < points[i][d] {
					oneLess = true
				}
			}
			if allLeq && oneLess {
				dominated = true
				break
			}
		}
		out[i] = !dominated
	}
	return out, nil
}
