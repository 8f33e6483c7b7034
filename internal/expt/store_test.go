package expt

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"potsim/internal/results"
)

// openTable opens CSV bytes as a result store with inferred kinds and
// checks that it holds the table's header and one row per line.
func openTable(t *testing.T, csv []byte) *results.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "table.csv")
	if err := os.WriteFile(path, csv, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := results.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(csv), "\n"), "\n")
	names := make([]string, len(st.Schema()))
	for i, c := range st.Schema() {
		names[i] = c.Name
	}
	if strings.Join(names, ",") != lines[0] {
		t.Fatalf("store columns %v, CSV header %q", names, lines[0])
	}
	if len(st.Rows()) != len(lines)-1 {
		t.Fatalf("store has %d rows, CSV has %d", len(st.Rows()), len(lines)-1)
	}
	return st
}

// TestStoreExportByteIdenticalAcrossWorkersShards: the CSV an
// experiment writes is its result store, and it is byte-identical to
// the serial golden at every worker count. The name is kept from when
// the CSV was exported from a separate columnar store and the test also
// varied an intra-run shard count.
func TestStoreExportByteIdenticalAcrossWorkersShards(t *testing.T) {
	golden, err := (&Runner{Quick: true, Workers: 1}).Run("E1")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		res, err := (&Runner{Quick: true, Workers: workers}).Run("E1")
		if err != nil {
			t.Fatal(err)
		}
		csv := res.Table.CSV()
		if csv != golden.Table.CSV() {
			t.Errorf("workers=%d: CSV diverged from serial golden\n-- got --\n%s\n-- golden --\n%s",
				workers, csv, golden.Table.CSV())
		}
		openTable(t, []byte(csv))
	}
}

// TestCommittedGoldenCSVsRoundTripThroughStore: every committed
// full-suite table opens as a result store, answers a query, and holds
// the same values after a write back.
func TestCommittedGoldenCSVsRoundTripThroughStore(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "results", "e*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no committed golden CSVs found")
	}
	for _, p := range paths {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			blob, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			st := openTable(t, blob)
			res, err := st.RunQuery(results.Query{Aggs: []results.Agg{{Op: "count"}}})
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Rows[0][0].Int; int(n) != len(st.Rows()) {
				t.Fatalf("count = %d, want %d", n, len(st.Rows()))
			}
			back := filepath.Join(t.TempDir(), "back.csv")
			if err := results.Write(back, st.Schema(), st.Rows()); err != nil {
				t.Fatal(err)
			}
			st2, err := results.Open(back, st.Schema())
			if err != nil {
				t.Fatal(err)
			}
			for r, row := range st.Rows() {
				for c, v := range row {
					w := st2.Rows()[r][c]
					if v.Int != w.Int || v.Str != w.Str || math.Float64bits(v.F) != math.Float64bits(w.F) {
						t.Fatalf("%s row %d column %d: %+v reads back as %+v", p, r+1, c, v, w)
					}
				}
			}
		})
	}
}
