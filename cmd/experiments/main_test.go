package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"potsim/internal/results"
)

func TestRunSingleExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick", "-e", "E4", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "e4.csv"))
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	if len(blob) == 0 {
		t.Error("empty CSV")
	}
}

// TestRunCSVIsTheStore: a temp dropping a killed run left in the -csv
// directory is cleaned before the first write, and the table written
// there opens as a result store with one row per table row.
func TestRunCSVIsTheStore(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "e4.csv.tmp123456")
	if err := os.WriteFile(tmp, []byte("half a ta"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-e", "E4", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp dropping survived the run: %v", err)
	}
	path := filepath.Join(dir, "e4.csv")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := results.Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Count(string(blob), "\n") - 1; want < 1 || len(st.Rows()) != want {
		t.Fatalf("store has %d rows, the CSV %d", len(st.Rows()), want)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no experiments requested should error")
	}
	if err := run([]string{"-e", "E99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunReportsAllFailures: every failing experiment must appear in
// the aggregated error, not just the first, and a failure must not
// abort a later healthy experiment.
func TestRunReportsAllFailures(t *testing.T) {
	err := run([]string{"-quick", "-e", "E98", "-e", "E4", "-e", "E99"})
	if err == nil {
		t.Fatal("bad ids accepted")
	}
	msg := err.Error()
	for _, want := range []string{"E98", "E99"} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregated error missing %s: %v", want, err)
		}
	}
	if strings.Contains(msg, "E4:") {
		t.Errorf("healthy experiment reported as failed: %v", err)
	}
}

func TestRunParallel(t *testing.T) {
	if err := run([]string{"-quick", "-parallel", "3", "-e", "E4", "-e", "E2", "-e", "E12"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunFlagClamping: out-of-range -parallel and -workers values are
// clamped rather than rejected or deadlocked on.
func TestRunFlagClamping(t *testing.T) {
	if err := run([]string{"-quick", "-parallel", "-3", "-workers", "-7", "-e", "E4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkersFlag(t *testing.T) {
	for _, w := range []string{"1", "8"} {
		if err := run([]string{"-quick", "-workers", w, "-progress", "-e", "E2"}); err != nil {
			t.Fatalf("-workers %s: %v", w, err)
		}
	}
}

func TestRunCSVPerExperiment(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick", "-e", "E4", "-e", "E12", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"e4.csv", "e12.csv"} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("CSV not written: %v", err)
		}
		if len(blob) == 0 {
			t.Errorf("empty CSV %s", name)
		}
	}
}

// TestRunChaosDegradesGracefully: with injected failures the command
// still emits the experiment's partial CSV (failed groups as n/a rows)
// and reports the failure with the cell's label.
func TestRunChaosDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-quick", "-e", "E5", "-csv", dir,
		"-chaos", "error:mapper=FF"})
	if err == nil {
		t.Fatal("injected failure reported success")
	}
	if !strings.Contains(err.Error(), "mapper=FF") {
		t.Errorf("error does not name the failed cell: %v", err)
	}
	blob, rerr := os.ReadFile(filepath.Join(dir, "e5.csv"))
	if rerr != nil {
		t.Fatalf("degraded CSV not written: %v", rerr)
	}
	if !strings.Contains(string(blob), "n/a") {
		t.Errorf("degraded CSV has no n/a rows:\n%s", blob)
	}
	if !strings.Contains(string(blob), "TUM") {
		t.Errorf("surviving cells missing from degraded CSV:\n%s", blob)
	}
}

// TestRunRetryFlagRescuesFlakyCell: with a retry budget a transiently
// failing cell recovers and the command exits cleanly.
func TestRunRetryFlagRescuesFlakyCell(t *testing.T) {
	err := run([]string{"-quick", "-e", "E4",
		"-chaos", "flaky", "-retries", "2", "-retry-backoff", "1ms"})
	if err != nil {
		t.Fatalf("retries did not rescue the flaky cell: %v", err)
	}
}

func TestRunGuardFlagValidation(t *testing.T) {
	if err := run([]string{"-quick", "-e", "E4", "-guard", "shrug"}); err == nil {
		t.Error("bogus guard policy accepted")
	}
	if err := run([]string{"-quick", "-e", "E4", "-guard", "log"}); err != nil {
		t.Fatalf("log guard policy rejected: %v", err)
	}
	if err := run([]string{"-quick", "-e", "E4", "-chaos", "meteor"}); err == nil {
		t.Error("bogus chaos mode accepted")
	}
}

// TestRunCellTimeoutFlag: a hanging cell is cut off by the watchdog and
// the experiment degrades instead of wedging the whole command.
func TestRunCellTimeoutFlag(t *testing.T) {
	err := run([]string{"-quick", "-e", "E4",
		"-chaos", "hang", "-cell-timeout", "50ms"})
	if err == nil {
		t.Fatal("hung cell reported success")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("failure not attributed to the deadline: %v", err)
	}
}

// TestInterruptThenResumeProducesIdenticalCSV is the end-to-end
// durability contract of the command: a SIGINT mid-suite exits with the
// journal and partial tables flushed, and a -resume run completes the
// suite with a CSV byte-identical to an uninterrupted run. A hang-chaos
// cell holds the suite open so the interrupt deterministically lands
// mid-run.
func TestInterruptThenResumeProducesIdenticalCSV(t *testing.T) {
	goldenDir := t.TempDir()
	if err := run([]string{"-quick", "-e", "E1", "-csv", goldenDir}); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(goldenDir, "e1.csv"))
	if err != nil {
		t.Fatal(err)
	}

	ck := t.TempDir()
	csvDir := t.TempDir()
	errc := make(chan error, 1)
	go func() {
		// The iat=2.000ms cells hang until the signal arrives; the earlier
		// iat=8ms/4ms cells complete and are journaled.
		errc <- run([]string{"-quick", "-e", "E1", "-workers", "1",
			"-csv", csvDir, "-checkpoint-dir", ck, "-chaos", "hang:iat=2.000ms"})
	}()
	time.Sleep(1 * time.Second)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	ierr := <-errc
	if ierr == nil {
		t.Fatal("interrupted suite reported success")
	}
	if !errors.Is(ierr, context.Canceled) {
		t.Fatalf("interrupt surfaced as %v, want a context.Canceled chain", ierr)
	}
	if _, err := os.Stat(filepath.Join(ck, "E1.journal")); err != nil {
		t.Fatalf("interrupt left no journal: %v", err)
	}
	// The partial CSV was flushed atomically: present, with no temp
	// droppings beside it.
	if _, err := os.Stat(filepath.Join(csvDir, "e1.csv")); err != nil {
		t.Fatalf("interrupt left no partial CSV: %v", err)
	}
	tmps, err := filepath.Glob(filepath.Join(csvDir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("atomic CSV write left temp files: %v", tmps)
	}

	if err := run([]string{"-quick", "-e", "E1", "-workers", "2",
		"-csv", csvDir, "-checkpoint-dir", ck, "-resume"}); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(csvDir, "e1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("resumed CSV differs from uninterrupted run:\n-- resumed --\n%s\n-- golden --\n%s", got, golden)
	}
}

func TestResumeFlagRequiresCheckpointDir(t *testing.T) {
	if err := run([]string{"-quick", "-e", "E4", "-resume"}); err == nil {
		t.Error("-resume without -checkpoint-dir accepted")
	}
}
