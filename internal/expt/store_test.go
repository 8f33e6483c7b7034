package expt

import (
	"os"
	"path/filepath"
	"testing"

	"potsim/internal/results"
)

// TestStoreExportByteIdenticalAcrossWorkersShards is the CSV-as-export
// contract: a result store written by the quick suite exports CSV
// byte-identical to the table's direct rendering — the seed golden —
// at every worker count, so demoting CSV to an export format changes no
// bytes anywhere. The name is kept from when the test also varied an
// intra-run shard count; every run is serial now.
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
		root := t.TempDir()
		if err := SaveStore(root, res); err != nil {
			t.Fatal(err)
		}
		exported, err := results.ExportCSV(StorePath(root, "E1"))
		if err != nil {
			t.Fatal(err)
		}
		if string(exported) != res.Table.CSV() {
			t.Errorf("workers=%d: store export diverged from direct rendering\n-- export --\n%s\n-- direct --\n%s",
				workers, exported, res.Table.CSV())
		}
		if string(exported) != golden.Table.CSV() {
			t.Errorf("workers=%d: store export diverged from serial golden", workers)
		}
		// The reconstructed table renders identically too (headers,
		// alignment, title).
		tbl, meta, err := results.ReadTable(StorePath(root, "E1"))
		if err != nil {
			t.Fatal(err)
		}
		tbl2 := *tbl
		tbl2.Title = res.Table.Title
		if tbl2.Render() != res.Table.Render() {
			t.Errorf("workers=%d: reconstructed table renders differently", workers)
		}
		if meta[results.MetaID] != "E1" {
			t.Errorf("store meta id = %q", meta[results.MetaID])
		}
	}
}

// TestCommittedGoldenCSVsRoundTripThroughStore drives the converter
// path over every committed full-suite golden: import must infer a
// schema whose export reproduces the file byte for byte.
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
			dir := t.TempDir()
			if err := results.ImportCSV(blob, dir, nil); err != nil {
				t.Fatal(err)
			}
			back, err := results.ExportCSV(dir)
			if err != nil {
				t.Fatal(err)
			}
			if string(back) != string(blob) {
				t.Fatalf("%s does not round-trip byte-identically through the store", p)
			}
		})
	}
}
