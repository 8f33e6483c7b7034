package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"potsim/internal/metrics"
	"potsim/internal/results"
)

// sweepCSV is a small DSE-shaped store: two policies at two TDP
// fractions and two intervals, plus one quarantined gap row.
const sweepCSV = `cell,policy,tdpFraction,intervalMS,status,penaltyPct
0,pots,0.25,20,ok,1.5
1,pots,0.25,50,ok,-0.5
2,naive,0.25,20,ok,3
3,naive,0.25,50,ok,2.25
4,pots,0.5,20,ok,0.75
5,pots,0.5,50,ok,0
6,naive,0.5,20,ok,4.5
7,naive,0.5,50,ok,1
8,pots,0.25,20,ok,2
9,naive,0.5,50,quarantined:panic,NaN
`

func writeStore(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "full.csv")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("results %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

func TestQueryOutputs(t *testing.T) {
	store := writeStore(t, sweepCSV)
	args := []string{"query", "-store", store, "-group-by", "policy,tdpFraction",
		"-agg", "count,mean:penaltyPct,min:penaltyPct,max:penaltyPct,p95:penaltyPct"}
	const aligned = `policy  tdpFraction  count  mean(penaltyPct)  min(penaltyPct)  max(penaltyPct)  p95(penaltyPct)
------  -----------  -----  ----------------  ---------------  ---------------  ---------------
naive   0.25         2      2.625             2.25             3                3
naive   0.5          3      NaN               NaN              NaN              NaN
pots    0.25         3      1                 -0.5             2                2
pots    0.5          2      0.375             0                0.75             0.75
`
	// Render pads every cell, the last included, so the lines of an
	// aligned table are all one width; compare without the padding.
	got := runOut(t, args...)
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	width := len(lines[0])
	for i := range lines {
		if len(lines[i]) != width {
			t.Errorf("aligned line %d is %d wide, the header %d", i, len(lines[i]), width)
		}
		lines[i] = strings.TrimRight(lines[i], " ")
	}
	if trimmed := strings.Join(lines, "\n") + "\n"; trimmed != aligned {
		t.Errorf("aligned query:\n%s\nwant:\n%s", trimmed, aligned)
	}
	const csv = `policy,tdpFraction,count,mean(penaltyPct),min(penaltyPct),max(penaltyPct),p95(penaltyPct)
naive,0.25,2,2.625,2.25,3,3
naive,0.5,2,2.75,1,4.5,4.5
pots,0.25,3,1,-0.5,2,2
pots,0.5,2,0.375,0,0.75,0.75
`
	if got := runOut(t, append(args, "-csv", "-where", "status==ok")...); got != csv {
		t.Errorf("csv query over ok rows:\n%s\nwant:\n%s", got, csv)
	}
}

func TestQueryWhere(t *testing.T) {
	store := writeStore(t, sweepCSV)
	for _, tc := range []struct {
		where []string
		want  string
	}{
		{[]string{"cell>=6"}, "count\n4\n"},                            // int column
		{[]string{"tdpFraction<0.3"}, "count\n5\n"},                    // float column
		{[]string{"intervalMS<=20.5"}, "count\n5\n"},                   // integral floats infer int64
		{[]string{"policy!=pots", "status==ok"}, "count\n4\n"},         // string columns
		{[]string{"penaltyPct>1", "penaltyPct<=3"}, "count\n4\n"},      // float range
		{[]string{"status == quarantined:panic"}, "count\n1\n"},        // spaces trimmed
		{[]string{"policy==tep"}, "count\n"},                           // no rows, no groups
		{[]string{"intervalMS==50", "tdpFraction==0.5"}, "count\n3\n"}, // exact float equality
	} {
		args := []string{"query", "-store", store, "-csv"}
		for _, w := range tc.where {
			args = append(args, "-where", w)
		}
		if got := runOut(t, args...); got != tc.want {
			t.Errorf("-where %v: got %q, want %q", tc.where, got, tc.want)
		}
	}
}

// TestQueryPercentileIsExact: a group of more than 64 rows gets the
// nearest-rank percentile of its values, not an estimate.
func TestQueryPercentileIsExact(t *testing.T) {
	var b strings.Builder
	b.WriteString("g,x\n")
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64((i*7919)%1000)/10 + float64(i%7)/1000
		b.WriteString("a," + metrics.FormatFloat(xs[i]) + "\n")
	}
	// The store holds the printed values, so take the percentile over
	// those.
	st, err := results.Open(writeStore(t, b.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range st.Rows() {
		xs[i] = row[1].F
	}
	got := runOut(t, "query", "-store", st.Path(), "-group-by", "g", "-agg", "p95:x,p50:x", "-csv")
	want := "g,p95(x),p50(x)\na," + metrics.FormatFloat(metrics.Percentile(xs, 95)) + "," +
		metrics.FormatFloat(metrics.Percentile(xs, 50)) + "\n"
	if got != want {
		t.Fatalf("percentiles over %d rows:\n%s\nwant:\n%s", len(xs), got, want)
	}
}

func TestStat(t *testing.T) {
	store := writeStore(t, sweepCSV)
	want := "store:    " + store + "\nrows:     10\n" +
		"schema:   cell:int64 policy:string tdpFraction:float64 intervalMS:int64 status:string penaltyPct:float64\n"
	if got := runOut(t, "stat", "-store", store); got != want {
		t.Fatalf("stat:\n%s\nwant:\n%s", got, want)
	}
}

func TestQueryErrors(t *testing.T) {
	store := writeStore(t, sweepCSV)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"query", "-store", store, "-group-by", "nope"}, `group-by column "nope" not in schema`},
		{[]string{"query", "-store", store, "-agg", "mean:nope"}, `aggregate column "nope" not in schema`},
		{[]string{"query", "-store", store, "-where", "nope==1"}, `filter column "nope" not in schema`},
		{[]string{"query", "-store", store, "-agg", "mean"}, `aggregate "mean" needs a column`},
		{[]string{"query", "-store", store, "-where", "cell~3"}, `filter "cell~3" has no comparison operator`},
		{[]string{"query", "-store", store, "-where", "cell<x"}, `"x" is not a number for column cell`},
		{[]string{"query", "-store", store, "-agg", "mean:policy"}, `aggregate mean over string column "policy"`},
		{[]string{"query"}, "-store is required"},
		{[]string{"export", "-store", store}, `unknown subcommand "export"`},
		{nil, "usage"},
	} {
		err := run(tc.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("results %v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestHeaderOnlyStoreAnswersWithHeader: a store with no rows (a DSE
// full stage with no survivors writes one) answers every query over
// existing columns with the header alone, whatever kinds the filter
// values have, and still refuses an unknown column.
func TestHeaderOnlyStoreAnswersWithHeader(t *testing.T) {
	store := writeStore(t, "cell,policy,tdpFraction,intervalMS,status,penaltyPct\n")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-where", "status==ok", "-agg", "count"}, "count\n"},
		{[]string{"-where", "penaltyPct>1", "-where", "policy!=notest", "-agg", "mean:penaltyPct"}, "mean(penaltyPct)\n"},
		{[]string{"-group-by", "policy,tdpFraction", "-where", "status==ok",
			"-agg", "count,sum:penaltyPct,min:cell,max:intervalMS,p95:penaltyPct,mean:status"},
			"policy,tdpFraction,count,sum(penaltyPct),min(cell),max(intervalMS),p95(penaltyPct),mean(status)\n"},
	} {
		args := append([]string{"query", "-store", store, "-csv"}, tc.args...)
		if got := runOut(t, args...); got != tc.want {
			t.Errorf("results %v: got %q, want %q", tc.args, got, tc.want)
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-where", "nope==ok"}, `filter column "nope" not in schema`},
		{[]string{"-group-by", "nope"}, `group-by column "nope" not in schema`},
		{[]string{"-agg", "mean:nope"}, `aggregate column "nope" not in schema`},
	} {
		err := run(append([]string{"query", "-store", store}, tc.args...), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("results %v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestMissingStoreFailsAndCreatesNothing: a mistyped -store is a
// not-found error, and nothing is left behind.
func TestMissingStoreFailsAndCreatesNothing(t *testing.T) {
	dir := t.TempDir()
	typo := filepath.Join(dir, "typo")
	for _, sub := range []string{"query", "stat"} {
		err := run([]string{sub, "-store", typo}, &bytes.Buffer{})
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s on a missing store: err = %v, want not-found", sub, err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("a failed query left %v behind", entries)
	}
}
