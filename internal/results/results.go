// Package results is the result store the experiment harness and DSE
// campaigns write and cmd/results queries: one CSV file per table, a
// header line of column names and then one line per row, with an
// in-memory query engine that filters, groups and aggregates exactly.
//
// A store is written whole with checkpoint.WriteFileAtomic (temp file,
// fsync, rename, directory fsync), so a crash at any instant leaves
// either the previous complete file or the new complete file, never a
// torn one. Open reads the whole file and refuses anything that does
// not parse: a row with the wrong cell count, a missing final newline,
// or a cell that does not parse as its column's kind is an error that
// names the file and line. The tables the simulator writes are small
// (hundreds of rows), so holding one in memory costs nothing and every
// aggregate, percentiles included, is exact.
package results

import "strconv"

// Kind is the type of a column.
type Kind uint8

const (
	// Int64 columns hold signed integers.
	Int64 Kind = iota
	// Float64 columns hold float64 values, written in the shortest
	// form that parses back to the same bits (NaN and ±Inf included).
	Float64
	// String columns hold strings verbatim; a string cell may not hold
	// a comma, a quote or a newline.
	String
)

// String returns the name of the kind.
func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns. Rows written to a store must
// match it positionally.
type Schema []Column

// Col returns the index of the named column, or -1.
func (s Schema) Col(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Value is one cell. Kind selects which field is meaningful; the
// others are ignored.
type Value struct {
	Kind Kind
	Int  int64
	F    float64
	Str  string
}

// IntVal builds an Int64 cell.
func IntVal(v int64) Value { return Value{Kind: Int64, Int: v} }

// FloatVal builds a Float64 cell.
func FloatVal(v float64) Value { return Value{Kind: Float64, F: v} }

// StrVal builds a String cell.
func StrVal(v string) Value { return Value{Kind: String, Str: v} }

// float returns a numeric cell in the float64 domain, where filters
// and aggregates compare and compute.
func (v Value) float() float64 {
	if v.Kind == Int64 {
		return float64(v.Int)
	}
	return v.F
}
