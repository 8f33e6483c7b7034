package results

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"potsim/internal/metrics"
	"potsim/internal/sim"
)

func testSchema() Schema {
	return Schema{
		{Name: "cell", Kind: Int64},
		{Name: "policy", Kind: String},
		{Name: "penalty", Kind: Float64},
	}
}

// testRows builds n deterministic rows: cell i, policy cycling
// pots/naive/tep, penalty i/4.
func testRows(n int) [][]Value {
	policies := [...]string{"pots", "naive", "tep"}
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{IntVal(int64(i)), StrVal(policies[i%3]), FloatVal(float64(i) * 0.25)}
	}
	return rows
}

// writeStore writes rows under schema to a fresh file and opens it
// back with the same schema.
func writeStore(t testing.TB, schema Schema, rows [][]Value) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.csv")
	if err := Write(path, schema, rows); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// writeText writes a raw store file and returns its path.
func writeText(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.csv")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sameBits reports whether two floats are the same IEEE-754 value.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestValuesRoundTripExactly(t *testing.T) {
	schema := Schema{{Name: "i", Kind: Int64}, {Name: "f", Kind: Float64}, {Name: "s", Kind: String}}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 42, 42, 1 << 40, 7}
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2.75, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, 0.1 + 0.2}
	strs := []string{"", "a", "quarantined:panic", "long-" + strings.Repeat("x", 100), "a", "üñïçødé", "n/a", "x", "  padded  "}
	rows := make([][]Value, len(ints))
	for i := range ints {
		rows[i] = []Value{IntVal(ints[i]), FloatVal(floats[i]), StrVal(strs[i])}
	}
	st := writeStore(t, schema, rows)
	got := st.Rows()
	if len(got) != len(rows) {
		t.Fatalf("read %d rows, wrote %d", len(got), len(rows))
	}
	for i, row := range got {
		if row[0].Int != ints[i] {
			t.Errorf("int[%d] = %d, want %d", i, row[0].Int, ints[i])
		}
		if !sameBits(row[1].F, floats[i]) {
			t.Errorf("float[%d] bits = %x, want %x (NaN and -0 must survive)",
				i, math.Float64bits(row[1].F), math.Float64bits(floats[i]))
		}
		if row[2].Str != strs[i] {
			t.Errorf("str[%d] = %q", i, row[2].Str)
		}
	}
}

// TestAppendRejectsShapeMismatches: the writer refuses a row that does
// not fit the schema and writes nothing.
func TestAppendRejectsShapeMismatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.csv")
	for name, rows := range map[string][][]Value{
		"short row":     {{IntVal(1)}},
		"kind mismatch": {{StrVal("x"), StrVal("y"), FloatVal(0)}},
	} {
		if err := Write(path, testSchema(), rows); err == nil {
			t.Fatalf("%s accepted", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: a refused write left a file behind: %v", name, err)
		}
	}
	if err := Write(path, testSchema(), [][]Value{{IntVal(1), StrVal("p"), FloatVal(2)}}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteRejectsUnreadableText: a comma, a quote or a newline in a
// string cell or a column name would not read back as one cell.
func TestWriteRejectsUnreadableText(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.csv")
	for _, s := range []string{"a,b", `say "hi"`, "two\nlines"} {
		if err := Write(path, testSchema(), [][]Value{{IntVal(1), StrVal(s), FloatVal(0)}}); err == nil {
			t.Errorf("string cell %q accepted", s)
		}
		if err := Write(path, Schema{{Name: s, Kind: Int64}}, nil); err == nil {
			t.Errorf("column name %q accepted", s)
		}
	}
}

func TestOpenRejectsSchemaMismatch(t *testing.T) {
	st := writeStore(t, testSchema(), testRows(3))
	for _, schema := range []Schema{
		{{Name: "other", Kind: Int64}},
		{{Name: "cell", Kind: Int64}, {Name: "penalty", Kind: Float64}, {Name: "policy", Kind: String}},
	} {
		_, err := Open(st.Path(), schema)
		if err == nil || !strings.Contains(err.Error(), st.Path()+":1:") {
			t.Fatalf("schema %v: err = %v, want a header mismatch naming line 1", schema, err)
		}
	}
	// The names match but a typed cell does not parse as its kind.
	_, err := Open(st.Path(), Schema{{Name: "cell", Kind: Int64}, {Name: "policy", Kind: Int64}, {Name: "penalty", Kind: Float64}})
	if err == nil || !strings.Contains(err.Error(), st.Path()+":2:") {
		t.Fatalf("kind mismatch: err = %v, want an error naming line 2", err)
	}
}

// TestOpenInfersKinds: with no schema, a column is int64 if every cell
// is an integer, float64 if every cell is a float (NaN included), and
// string otherwise. A header-only file opens with zero rows.
func TestOpenInfersKinds(t *testing.T) {
	path := writeText(t, "n,x,gap,label,mixed\n1,0.5,NaN,a,1\n-2,20,1.25,b,x\n")
	st, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Schema{{"n", Int64}, {"x", Float64}, {"gap", Float64}, {"label", String}, {"mixed", String}}
	for i, c := range st.Schema() {
		if c != want[i] {
			t.Fatalf("inferred schema %v, want %v", st.Schema(), want)
		}
	}
	if r := st.Rows()[1]; r[0].Int != -2 || !sameBits(r[1].F, 20) || r[4].Str != "x" {
		t.Fatalf("row 2 = %v", r)
	}
	empty, err := Open(writeText(t, "a,b\n"), nil)
	if err != nil || len(empty.Rows()) != 0 || len(empty.Schema()) != 2 {
		t.Fatalf("header-only store = %v, %v", empty, err)
	}
}

// TestOpenMissingFileCreatesNothing: a mistyped path is an error, and
// Open leaves nothing behind.
func TestOpenMissingFileCreatesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "typo", "e1.csv")
	if _, err := Open(path, nil); !os.IsNotExist(err) {
		t.Fatalf("missing store: err = %v, want not-exist", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("Open created %v", entries)
	}
}

// TestDecodeRejectsTornTail: a write cut anywhere but a line boundary
// leaves a file without its final newline, and Open refuses it, naming
// the file and the torn line. A cut on a line boundary would read as a
// shorter table, which is why writers replace the file atomically.
func TestDecodeRejectsTornTail(t *testing.T) {
	st := writeStore(t, testSchema(), testRows(5))
	blob, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut++ {
		if cut > 0 && blob[cut-1] == '\n' {
			continue
		}
		line := strings.Count(string(blob[:cut]), "\n") + 1
		_, err := Open(writeText(t, string(blob[:cut])), testSchema())
		if err == nil {
			t.Fatalf("torn tail at %d/%d bytes opened successfully", cut, len(blob))
		}
		if want := ":" + strconv.Itoa(line) + ": no final newline"; !strings.Contains(err.Error(), want) {
			t.Fatalf("torn tail at %d: err = %v, want %q", cut, err, want)
		}
	}
}

// TestDecodeRejectsForeignFile: a file that is not a table of the
// expected schema is refused with an error naming it, never read as an
// empty or partial store.
func TestDecodeRejectsForeignFile(t *testing.T) {
	for _, blob := range []string{
		"",
		"POTSRSEG\x01\x00\x00\x00binary segment bytes",
		`{"magic":"potsim-checkpoint","kind":"x","version":1}` + "\n",
		strings.Repeat("\x00", 500),
		"interarrival,core-util\n8,0.5\n",
		"\n",
	} {
		path := writeText(t, blob)
		if _, err := Open(path, testSchema()); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("foreign file %.20q: err = %v, want an error naming %s", blob, err, path)
		}
	}
}

// TestScanSurfacesMidStoreCorruption: a damaged row in the middle of a
// store fails Open with the file and line; no query ever aggregates
// the rows around it.
func TestScanSurfacesMidStoreCorruption(t *testing.T) {
	st := writeStore(t, testSchema(), testRows(30))
	blob, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	good := string(blob)
	lines := strings.SplitAfter(good, "\n")
	for name, damaged := range map[string]string{
		"extra cell":     strings.Replace(good, lines[15], "14,tep,3.5,9\n", 1),
		"missing cell":   strings.Replace(good, lines[15], "14,tep\n", 1),
		"unparsable int": strings.Replace(good, lines[15], "1x,tep,3.5\n", 1),
		"flipped float":  strings.Replace(good, lines[15], "14,tep,3.5e\n", 1),
		"quoted cell":    strings.Replace(good, lines[15], "14,\"tep\",3.5\n", 1),
	} {
		_, err := Open(writeText(t, damaged), testSchema())
		if err == nil || !strings.Contains(err.Error(), ".csv:16:") {
			t.Errorf("%s: err = %v, want an error naming line 16", name, err)
		}
	}
}

func TestQueryGroupByAggregates(t *testing.T) {
	st := writeStore(t, testSchema(), testRows(100))
	res, err := st.RunQuery(Query{
		GroupBy: []string{"policy"},
		Aggs: []Agg{
			{Op: "count"},
			{Op: "mean", Col: "penalty"},
			{Op: "min", Col: "penalty"},
			{Op: "max", Col: "penalty"},
			{Op: "sum", Col: "cell"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantHeaders := []string{"policy", "count", "mean(penalty)", "min(penalty)", "max(penalty)", "sum(cell)"}
	if strings.Join(res.Headers, " ") != strings.Join(wantHeaders, " ") {
		t.Fatalf("headers = %v, want %v", res.Headers, wantHeaders)
	}
	// Groups come back sorted: naive, pots, tep.
	if len(res.Rows) != 3 || res.Rows[0][0].Str != "naive" || res.Rows[1][0].Str != "pots" || res.Rows[2][0].Str != "tep" {
		t.Fatalf("groups = %v", res.Rows)
	}
	// policy cycles i%3: pots at 0,3,..,99 (34 rows), naive at 1,4,..,97
	// (33), tep at 2,5,..,98 (33).
	if n := res.Rows[1][1].Int; n != 34 {
		t.Fatalf("count(pots) = %d, want 34", n)
	}
	// naive cells are 1,4,...,97: sum = 33*(1+97)/2 = 1617.
	if s := res.Rows[0][5].F; !sameBits(s, 1617) {
		t.Fatalf("sum(cell) naive = %v", s)
	}
	// min/max penalty for tep: cells 2..98 step 3, *0.25.
	if lo, hi := res.Rows[2][3].F, res.Rows[2][4].F; !sameBits(lo, 0.5) || !sameBits(hi, 24.5) {
		t.Fatalf("tep penalty range [%v,%v]", lo, hi)
	}
	// pots penalties are 0, 0.75, ..., 24.75: mean 12.375.
	if m := res.Rows[1][2].F; !sameBits(m, 12.375) {
		t.Fatalf("mean(penalty) pots = %v", m)
	}
}

// TestQueryNaNPoisonsGroupWhateverTheOrder: a NaN anywhere in a group
// (a quarantined DSE cell) makes sum, mean, min, max and percentiles
// NaN, whether it is the first, a middle or the last row; count is
// unaffected and a NaN-free group is untouched.
func TestQueryNaNPoisonsGroupWhateverTheOrder(t *testing.T) {
	schema := Schema{{Name: "g", Kind: String}, {Name: "x", Kind: Float64}}
	nan := math.NaN()
	for name, xs := range map[string][]float64{
		"first": {nan, 1, 2}, "middle": {1, nan, 2}, "last": {1, 2, nan},
	} {
		rows := [][]Value{{StrVal("clean"), FloatVal(3)}, {StrVal("clean"), FloatVal(-1)}}
		for _, x := range xs {
			rows = append(rows, []Value{StrVal("gap"), FloatVal(x)})
		}
		st := writeStore(t, schema, rows)
		res, err := st.RunQuery(Query{GroupBy: []string{"g"}, Aggs: []Agg{
			{Op: "count"}, {Op: "sum", Col: "x"}, {Op: "mean", Col: "x"},
			{Op: "min", Col: "x"}, {Op: "max", Col: "x"}, {Op: "p50", Col: "x"}, {Op: "p100", Col: "x"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		clean, gap := res.Rows[0], res.Rows[1]
		if gap[1].Int != 3 {
			t.Errorf("%s: count = %d, want 3", name, gap[1].Int)
		}
		for i := 2; i < len(gap); i++ {
			if !math.IsNaN(gap[i].F) {
				t.Errorf("%s: %s = %v, want NaN", name, res.Headers[i], gap[i].F)
			}
		}
		want := []float64{2, 1, -1, 3, -1, 3}
		for i, w := range want {
			if !sameBits(clean[i+2].F, w) {
				t.Errorf("%s: clean %s = %v, want %v", name, res.Headers[i+2], clean[i+2].F, w)
			}
		}
	}
}

func TestQueryFilters(t *testing.T) {
	st := writeStore(t, testSchema(), testRows(60))
	res, err := st.RunQuery(Query{
		Filters: []Filter{
			{Col: "policy", Op: Eq, Val: StrVal("pots")},
			{Col: "cell", Op: Lt, Val: IntVal(30)},
		},
		Aggs: []Agg{{Op: "count"}, {Op: "max", Col: "cell"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// pots cells < 30: 0,3,...,27 -> 10 rows, max 27.
	if res.Rows[0][0].Int != 10 || !sameBits(res.Rows[0][1].F, 27) {
		t.Fatalf("filtered aggregate = %v", res.Rows[0])
	}
	// A float value against an int column and an int value against a
	// float column both compare in the float domain.
	res, err = st.RunQuery(Query{
		Filters: []Filter{
			{Col: "cell", Op: Le, Val: FloatVal(20.5)},
			{Col: "penalty", Op: Ge, Val: IntVal(3)},
		},
		Aggs: []Agg{{Op: "count"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// cells 12..20 have penalty >= 3.
	if res.Rows[0][0].Int != 9 {
		t.Fatalf("mixed-kind filters counted %d rows, want 9", res.Rows[0][0].Int)
	}
}

func TestQueryErrors(t *testing.T) {
	st := writeStore(t, testSchema(), testRows(3))
	cases := []Query{
		{Filters: []Filter{{Col: "nope", Op: Eq, Val: IntVal(0)}}},
		{Filters: []Filter{{Col: "policy", Op: Eq, Val: IntVal(0)}}},
		{GroupBy: []string{"nope"}},
		{Aggs: []Agg{{Op: "mean", Col: "policy"}}},
		{Aggs: []Agg{{Op: "p200", Col: "penalty"}}},
		{Aggs: []Agg{{Op: "mode", Col: "penalty"}}},
		{Aggs: []Agg{{Op: "mean", Col: "nope"}}},
	}
	for i, q := range cases {
		if _, err := st.RunQuery(q); err == nil {
			t.Errorf("case %d: bad query accepted", i)
		}
	}
}

// TestQuantileExactSmall: percentile aggregates over small groups are
// nearest-rank over the group's values.
func TestQuantileExactSmall(t *testing.T) {
	rng := sim.NewRNG(7).Stream("quant")
	schema := Schema{{Name: "x", Kind: Float64}}
	for _, n := range []int{1, 2, 5, 32, 64} {
		rows := make([][]Value, n)
		samples := make([]float64, n)
		for i := range rows {
			samples[i] = rng.Uniform(-50, 50)
			rows[i] = []Value{FloatVal(samples[i])}
		}
		st := writeStore(t, schema, rows)
		sort.Float64s(samples)
		for _, q := range []float64{0, 0.5, 0.95, 1} {
			res, err := st.RunQuery(Query{Aggs: []Agg{{Op: "p" + strconv.FormatFloat(q*100, 'g', -1, 64), Col: "x"}}})
			if err != nil {
				t.Fatal(err)
			}
			rank := int(math.Ceil(q*float64(n))) - 1
			if rank < 0 {
				rank = 0
			}
			if got := res.Rows[0][0].F; !sameBits(got, samples[rank]) {
				t.Errorf("n=%d q=%v: got %v, want %v", n, q, got, samples[rank])
			}
		}
	}
}

// TestQuantileAccuracyLargeStream: over a large group a percentile is
// still exact nearest-rank — no estimator takes over past some row
// count — and so lands on the distribution's true quantile.
func TestQuantileAccuracyLargeStream(t *testing.T) {
	rng := sim.NewRNG(11).Stream("quant")
	n := 200000
	if testing.Short() {
		n = 20000
	}
	rows := make([][]Value, n)
	samples := make([]float64, n)
	for i := range rows {
		samples[i] = rng.Uniform(0, 1000)
		rows[i] = []Value{FloatVal(samples[i])}
	}
	st := writeStore(t, Schema{{Name: "x", Kind: Float64}}, rows)
	res, err := st.RunQuery(Query{Aggs: []Agg{{Op: "p50", Col: "x"}, {Op: "p95", Col: "x"}, {Op: "p99", Col: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, pct := range []float64{50, 95, 99} {
		got := res.Rows[0][i].F
		if want := metrics.Percentile(samples, pct); !sameBits(got, want) {
			t.Errorf("p%v over %d samples = %v, nearest-rank %v", pct, n, got, want)
		}
		if truth := pct * 10; math.Abs(got-truth) > 10 {
			t.Errorf("p%v over %d uniform samples = %v, true quantile %v", pct, n, got, truth)
		}
	}
}

// FuzzOpen: on any bytes Open returns a store or an error, never a
// panic, and a store it loads, written back and read again under its
// schema, holds the same values. It drives Open's and Write's in-memory
// halves so the fuzzer is not bound by fsync.
func FuzzOpen(f *testing.F) {
	f.Add([]byte("cell,policy,penalty\n0,pots,0.25\n1,naive,NaN\n"))
	f.Add([]byte("a,b\n"))
	f.Add([]byte("x\n1\n2.5\n-Inf\n"))
	f.Add([]byte("a,b\n1,2\n3\n"))
	f.Add([]byte("tdp,label\n0.25,\"q\"\n0.5,ok"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		st, err := parse("fuzz.csv", blob, nil)
		if err != nil {
			return
		}
		enc, err := encode(st.Schema(), st.Rows())
		if err != nil {
			t.Fatalf("a loaded store does not write back: %v", err)
		}
		back, err := parse("back.csv", enc, st.Schema())
		if err != nil {
			t.Fatalf("a written-back store does not read: %v\n%q", err, enc)
		}
		if len(back.Rows()) != len(st.Rows()) {
			t.Fatalf("%d rows read back, %d loaded", len(back.Rows()), len(st.Rows()))
		}
		for r, row := range st.Rows() {
			for c, v := range row {
				w := back.Rows()[r][c]
				if v.Kind != w.Kind || v.Int != w.Int || v.Str != w.Str || !sameBits(v.F, w.F) {
					t.Fatalf("row %d column %d: loaded %+v, read back %+v", r, c, v, w)
				}
			}
		}
	})
}
