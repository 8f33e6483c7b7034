package results

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"potsim/internal/metrics"
)

// CmpOp is a filter comparison operator.
type CmpOp uint8

const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// ParseCmpOp parses the usual spellings ("==", "!=", "<", "<=", ">",
// ">=").
func ParseCmpOp(s string) (CmpOp, error) {
	switch s {
	case "==", "=":
		return Eq, nil
	case "!=":
		return Ne, nil
	case "<":
		return Lt, nil
	case "<=":
		return Le, nil
	case ">":
		return Gt, nil
	case ">=":
		return Ge, nil
	}
	return 0, fmt.Errorf("results: unknown comparison %q", s)
}

// Filter keeps rows where column Col compares true against Val.
// Numeric columns compare numerically in the float64 domain, whatever
// the numeric kinds of column and value; string columns compare
// lexicographically and only against string values.
type Filter struct {
	Col string
	Op  CmpOp
	Val Value
}

// Agg is one aggregate: Op is "count", "sum", "mean", "min", "max" or
// a percentile like "p95" / "p99.9". Col may be empty for "count".
// Numeric aggregates accept Int64 and Float64 columns and compute in
// the float64 domain. Percentiles are exact nearest-rank
// (metrics.Percentile). A NaN anywhere in a group makes that group's
// sum, mean, min, max and percentiles NaN, whatever the row order.
type Agg struct {
	Op  string
	Col string
}

// Query filters rows, groups them by zero or more columns, and folds
// the aggregates over each group.
type Query struct {
	Filters []Filter
	GroupBy []string
	Aggs    []Agg
}

// QueryResult holds the aggregated rows, one per group, sorted by the
// group-by values.
type QueryResult struct {
	Headers []string
	Rows    [][]Value
}

type compiledFilter struct {
	col int
	op  CmpOp
	val Value
}

type compiledAgg struct {
	col  int     // -1 for bare count
	pct  float64 // percentile target in [0,100], NaN otherwise
	op   string
	name string
}

type group struct {
	key  []Value
	rows [][]Value
}

// RunQuery executes q against the store.
func (st *Store) RunQuery(q Query) (*QueryResult, error) {
	filters := make([]compiledFilter, len(q.Filters))
	for i, f := range q.Filters {
		c := st.schema.Col(f.Col)
		if c < 0 {
			return nil, fmt.Errorf("results: filter column %q not in schema", f.Col)
		}
		kind := st.schema[c].Kind
		if (kind == String) != (f.Val.Kind == String) {
			return nil, fmt.Errorf("results: filter on %q compares %v column against %v value",
				f.Col, kind, f.Val.Kind)
		}
		filters[i] = compiledFilter{col: c, op: f.Op, val: f.Val}
	}
	groupCols := make([]int, len(q.GroupBy))
	for i, name := range q.GroupBy {
		c := st.schema.Col(name)
		if c < 0 {
			return nil, fmt.Errorf("results: group-by column %q not in schema", name)
		}
		groupCols[i] = c
	}
	aggs := make([]compiledAgg, len(q.Aggs))
	for i, a := range q.Aggs {
		ca, err := compileAgg(st.schema, a)
		if err != nil {
			return nil, err
		}
		aggs[i] = ca
	}

	groups := make(map[string]*group)
	var keyBuf []byte
rows:
	for _, row := range st.rows {
		for _, f := range filters {
			if !evalFilter(row, f) {
				continue rows
			}
		}
		keyBuf = keyBuf[:0]
		for _, c := range groupCols {
			keyBuf = appendKey(keyBuf, row[c])
		}
		g := groups[string(keyBuf)]
		if g == nil {
			g = &group{key: make([]Value, len(groupCols))}
			for i, c := range groupCols {
				g.key[i] = row[c]
			}
			groups[string(keyBuf)] = g
		}
		g.rows = append(g.rows, row)
	}

	out := make([]*group, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return lessValues(out[i].key, out[j].key) })

	res := &QueryResult{}
	res.Headers = append(res.Headers, q.GroupBy...)
	for _, a := range aggs {
		res.Headers = append(res.Headers, a.name)
	}
	for _, g := range out {
		row := make([]Value, 0, len(g.key)+len(aggs))
		row = append(row, g.key...)
		for i := range aggs {
			row = append(row, aggregate(&aggs[i], g.rows))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func compileAgg(schema Schema, a Agg) (compiledAgg, error) {
	ca := compiledAgg{col: -1, pct: math.NaN(), op: a.Op}
	if a.Op == "count" && a.Col == "" {
		ca.name = "count"
		return ca, nil
	}
	c := schema.Col(a.Col)
	if c < 0 {
		return ca, fmt.Errorf("results: aggregate column %q not in schema", a.Col)
	}
	ca.col = c
	ca.name = a.Op + "(" + a.Col + ")"
	switch a.Op {
	case "count":
		return ca, nil
	case "sum", "mean", "min", "max":
	default:
		if len(a.Op) < 2 || a.Op[0] != 'p' {
			return ca, fmt.Errorf("results: unknown aggregate %q", a.Op)
		}
		pct, err := strconv.ParseFloat(a.Op[1:], 64)
		if err != nil || pct < 0 || pct > 100 {
			return ca, fmt.Errorf("results: bad percentile aggregate %q", a.Op)
		}
		ca.pct = pct
	}
	if schema[c].Kind == String {
		return ca, fmt.Errorf("results: aggregate %s over string column %q", a.Op, a.Col)
	}
	return ca, nil
}

func evalFilter(row []Value, f compiledFilter) bool {
	v := row[f.col]
	if v.Kind == String {
		return cmpOrdered(v.Str, f.val.Str, f.op)
	}
	return cmpOrdered(v.float(), f.val.float(), f.op)
}

// cmpOrdered applies op. Filter equality on float columns is
// deliberately exact: it matches the bit-identical value the writer
// stored (floats round-trip exactly through the file), which is what
// "select this config point" means.
func cmpOrdered[T float64 | string](a, b T, op CmpOp) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	default:
		return a >= b
	}
}

// aggregate folds one aggregate over a group's rows (never empty: a
// group exists because a row landed in it). Sums run in row order.
func aggregate(a *compiledAgg, rows [][]Value) Value {
	if a.op == "count" {
		return IntVal(int64(len(rows)))
	}
	xs := make([]float64, len(rows))
	var sum float64
	hasNaN := false
	for i, row := range rows {
		xs[i] = row[a.col].float()
		sum += xs[i]
		hasNaN = hasNaN || math.IsNaN(xs[i])
	}
	switch {
	case a.op == "sum":
		return FloatVal(sum)
	case a.op == "mean":
		return FloatVal(sum / float64(len(xs)))
	case hasNaN:
		return FloatVal(math.NaN())
	case a.op == "min":
		lo := xs[0]
		for _, x := range xs[1:] {
			if x < lo {
				lo = x
			}
		}
		return FloatVal(lo)
	case a.op == "max":
		hi := xs[0]
		for _, x := range xs[1:] {
			if x > hi {
				hi = x
			}
		}
		return FloatVal(hi)
	default:
		return FloatVal(metrics.Percentile(xs, a.pct))
	}
}

// appendKey appends an unambiguous encoding of v (kind tag, length
// prefix for strings) to the group-key scratch.
func appendKey(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case Int64:
		dst = strconv.AppendInt(dst, v.Int, 16)
	case Float64:
		dst = strconv.AppendFloat(dst, v.F, 'x', -1, 64)
	case String:
		dst = strconv.AppendInt(dst, int64(len(v.Str)), 10)
		dst = append(dst, ':')
		dst = append(dst, v.Str...)
	}
	return append(dst, 0)
}

// lessValues orders group keys column by column: numerics numerically,
// strings lexicographically.
func lessValues(a, b []Value) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		x, y := a[i], b[i]
		if x.Kind == String {
			if x.Str != y.Str {
				return x.Str < y.Str
			}
			continue
		}
		xf, yf := x.float(), y.float()
		if xf < yf {
			return true
		}
		if xf > yf {
			return false
		}
	}
	return len(a) < len(b)
}
