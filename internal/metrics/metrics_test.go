package metrics

import (
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(samples, 50); p != 5 {
		t.Errorf("P50 = %v, want 5", p)
	}
	if p := Percentile(samples, 95); p != 10 {
		t.Errorf("P95 = %v, want 10", p)
	}
	if p := Percentile(samples, 0); p != 1 {
		t.Errorf("P0 = %v, want 1", p)
	}
	if p := Percentile(samples, 100); p != 10 {
		t.Errorf("P100 = %v, want 10", p)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Input must not be mutated.
	unsorted := []float64{3, 1, 2}
	Percentile(unsorted, 50)
	if unsorted[0] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.0)
	tb.AddRow("beta", 2.5)
	tb.AddRow("gamma", 1234567.0)
	out := tb.Render()
	for _, want := range []string{"== demo ==", "name", "alpha", "2.5", "1234567"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Errorf("render has %d lines, want 6", len(lines))
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow(1.0, "two")
	csv := tb.CSV()
	if csv != "a,b\n1,two\n" {
		t.Errorf("CSV = %q", csv)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		3.5:     "3.5",
		0.12345: "0.1235",
		-2:      "-2",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
