// Command results inspects and queries result stores: the CSV tables
// `experiments -csv dir/` writes (dir/e1.csv, ...) and the per-stage
// tables `dse -store root/` writes (root/screen.csv, root/full.csv).
// See internal/results and the "Result store" section of DESIGN.md.
//
// Usage:
//
//	results stat  -store file.csv              # path, rows, schema with inferred kinds
//	results query -store file.csv -group-by policy -agg count,mean:penalty,p95:penalty \
//	              [-where 'cell<100'] [-csv]
//
// A store is read whole and every aggregate is exact: count, sum,
// mean, min, max and nearest-rank percentiles (p50, p95, p99.9, ...).
// Column kinds are inferred from the cells, and a numeric -where value
// compares in float64 against either numeric kind. A NaN in a group
// makes its sum, mean, min, max and percentiles NaN; DSE stores carry
// quarantined cells as NaN gap rows, so add -where 'status==ok' to
// aggregate over completed cells only. A store that does not parse
// fails the command rather than aggregating part of it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"potsim/internal/metrics"
	"potsim/internal/results"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "results:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: results <stat|query> [flags]")
	}
	switch args[0] {
	case "stat":
		return runStat(args[1:], stdout)
	case "query":
		return runQuery(args[1:], stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (have stat, query)", args[0])
	}
}

func runStat(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("results stat", flag.ContinueOnError)
	path := fs.String("store", "", "store file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("stat: -store is required")
	}
	st, err := results.Open(*path, nil)
	if err != nil {
		return err
	}
	parts := make([]string, len(st.Schema()))
	for i, c := range st.Schema() {
		parts[i] = fmt.Sprintf("%s:%s", c.Name, c.Kind)
	}
	_, err = fmt.Fprintf(stdout, "store:    %s\nrows:     %d\nschema:   %s\n",
		st.Path(), len(st.Rows()), strings.Join(parts, " "))
	return err
}

func runQuery(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("results query", flag.ContinueOnError)
	path := fs.String("store", "", "store file")
	groupBy := fs.String("group-by", "", "comma-separated group-by columns")
	aggSpec := fs.String("agg", "count", "comma-separated aggregates: count, sum:col, mean:col, min:col, max:col, p95:col, ...")
	var wheres stringList
	fs.Var(&wheres, "where", "filter 'col OP value' with OP in == != < <= > >= (repeatable)")
	asCSV := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("query: -store is required")
	}
	st, err := results.Open(*path, nil)
	if err != nil {
		return err
	}
	q := results.Query{}
	if *groupBy != "" {
		q.GroupBy = strings.Split(*groupBy, ",")
	}
	for _, part := range strings.Split(*aggSpec, ",") {
		op, col, found := strings.Cut(part, ":")
		if !found && op != "count" {
			return fmt.Errorf("query: aggregate %q needs a column (op:col)", part)
		}
		q.Aggs = append(q.Aggs, results.Agg{Op: op, Col: col})
	}
	// A store with no rows has no cells to infer kinds from, so every
	// column reads as int64, and nothing for a filter to drop: a filter
	// only has to name a column, and the answer is the header alone.
	empty := len(st.Rows()) == 0
	for _, w := range wheres {
		f, err := parseWhere(st.Schema(), w, empty)
		if err != nil {
			return err
		}
		if !empty {
			q.Filters = append(q.Filters, f)
		}
	}
	res, err := st.RunQuery(q)
	if err != nil {
		return err
	}
	t := metrics.NewTable("", res.Headers...)
	for _, row := range res.Rows {
		cells := make([]any, len(row))
		for i, v := range row {
			switch v.Kind {
			case results.Int64:
				cells[i] = v.Int
			case results.Float64:
				cells[i] = v.F
			default:
				cells[i] = v.Str
			}
		}
		t.AddRow(cells...)
	}
	out := t.Render()
	if *asCSV {
		out = t.CSV()
	}
	_, err = io.WriteString(stdout, out)
	return err
}

// parseWhere splits 'col OP value'. A value for a numeric column of
// either kind parses as float64, the domain filters compare in, unless
// the kinds are unknown (untyped: the store has no rows).
func parseWhere(schema results.Schema, s string, untyped bool) (results.Filter, error) {
	for _, op := range []string{"<=", ">=", "==", "!=", "<", ">"} {
		col, val, found := strings.Cut(s, op)
		if !found {
			continue
		}
		col, val = strings.TrimSpace(col), strings.TrimSpace(val)
		cmp, err := results.ParseCmpOp(op)
		if err != nil {
			return results.Filter{}, err
		}
		ci := schema.Col(col)
		if ci < 0 {
			return results.Filter{}, fmt.Errorf("query: filter column %q not in schema", col)
		}
		f := results.Filter{Col: col, Op: cmp, Val: results.StrVal(val)}
		if schema[ci].Kind != results.String && !untyped {
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return results.Filter{}, fmt.Errorf("query: %q is not a number for column %s", val, col)
			}
			f.Val = results.FloatVal(x)
		}
		return f, nil
	}
	return results.Filter{}, fmt.Errorf("query: filter %q has no comparison operator", s)
}

type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}
