package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"potsim/internal/core"
)

func TestRunDefaultFlags(t *testing.T) {
	if err := run([]string{"-horizon", "20ms"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-mesh", "banana"},
		{"-node", "7nm"},
		{"-policy", "nope", "-horizon", "10ms"},
		{"-mapper", "nope", "-horizon", "10ms"},
		{"-noc", "quantum", "-horizon", "10ms"},
		{"-tdp-frac", "0", "-horizon", "10ms"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}

	// A flit-mode run cannot be snapshotted, so -checkpoint-dir is
	// refused before the run starts, whether flit comes from the
	// command line or from the -config file.
	cfg := core.DefaultConfig()
	cfg.NoCMode = "flit"
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flitCfg := filepath.Join(t.TempDir(), "flit.json")
	if err := os.WriteFile(flitCfg, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	for _, args := range [][]string{
		{"-noc", "flit", "-checkpoint-dir", ckptDir, "-horizon", "10ms"},
		{"-config", flitCfg, "-checkpoint-dir", ckptDir, "-horizon", "10ms"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "flit") {
			t.Errorf("args %v: got %v, want a flit-mode checkpoint error", args, err)
		}
	}
	if _, err := os.Stat(ckptDir); !os.IsNotExist(err) {
		t.Errorf("rejected flit run touched its checkpoint dir: %v", err)
	}
}

func TestRunWithTraceAndHistogram(t *testing.T) {
	if err := run([]string{"-horizon", "20ms", "-trace", "-levels-hist"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSONOutput(t *testing.T) {
	if err := run([]string{"-horizon", "10ms", "-json"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunConfigFile: a -config file's values survive every flag the
// command line does not give — only -horizon is passed here.
func TestRunConfigFile(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Width, cfg.Height = 6, 6
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	inputs := []string{path}
	for _, name := range []string{"default-16nm", "failstop", "large-1024", "tight-budget"} {
		inputs = append(inputs, filepath.Join("..", "..", "configs", name+".json"))
	}
	for _, in := range inputs {
		file, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		want := core.DefaultConfig()
		if err := json.Unmarshal(file, &want); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		out, err := captureStdout(t, func() error {
			return run([]string{"-config", in, "-horizon", "1ms", "-json"})
		})
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		var rep core.Report
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("%s: report is not JSON: %v", in, err)
		}
		got := rep.Config
		if got.Width != want.Width || got.Height != want.Height || got.EnableFaults != want.EnableFaults {
			t.Errorf("%s: ran %dx%d faults=%v, file says %dx%d faults=%v", in,
				got.Width, got.Height, got.EnableFaults, want.Width, want.Height, want.EnableFaults)
		}
	}
	if err := run([]string{"-config", "/does/not/exist.json"}); err == nil {
		t.Error("missing config file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{nope"), 0o644)
	if err := run([]string{"-config", bad}); err == nil {
		t.Error("unparseable config accepted")
	}
}

func TestRunHeatmaps(t *testing.T) {
	if err := run([]string{"-horizon", "20ms", "-heatmaps"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRecordThenReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "wl.jsonl")
	if err := run([]string{"-horizon", "20ms", "-record", trace}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-horizon", "20ms", "-workload", trace}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBursty(t *testing.T) {
	if err := run([]string{"-horizon", "20ms", "-bursty"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEventsDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := run([]string{"-horizon", "20ms", "-events", path}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Error("empty event log")
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(string(blob), "\n", 2)[0]), &first); err != nil {
		t.Fatalf("event log not JSONL: %v", err)
	}
}

func TestRunTorusTopology(t *testing.T) {
	if err := run([]string{"-horizon", "15ms", "-topology", "torus"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-topology", "donut"}); err == nil {
		t.Error("bogus topology accepted")
	}
}

// TestRunConfigStrictKeys: a misspelled config key must be rejected by
// name, not silently fall back to the default value.
func TestRunConfigStrictKeys(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "configs", "default-16nm.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The shipped config must itself pass strict decoding.
	if err := run([]string{"-config",
		filepath.Join("..", "..", "configs", "default-16nm.json"),
		"-horizon", "10ms"}); err != nil {
		t.Fatalf("shipped config rejected under strict decoding: %v", err)
	}
	typo := strings.Replace(string(blob), `"TDPFraction"`, `"TDPFracton"`, 1)
	if !strings.Contains(typo, "TDPFracton") {
		t.Fatal("test setup: typo not applied")
	}
	path := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(path, []byte(typo), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-config", path, "-horizon", "10ms"})
	if err == nil {
		t.Fatal("misspelled key accepted")
	}
	if !strings.Contains(err.Error(), "TDPFracton") {
		t.Errorf("error does not name the unknown key: %v", err)
	}
}

func TestRunGuardFlag(t *testing.T) {
	if err := run([]string{"-horizon", "10ms", "-guard", "log"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-horizon", "10ms", "-guard", "shrug"}); err == nil {
		t.Error("bogus guard policy accepted")
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what fn printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	ferr := fn()
	os.Stdout = old
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	return string(blob), ferr
}

// TestInterruptSavesSnapshotAndResumeMatches: a SIGINT mid-run stops the
// simulation gracefully, saves a resumable snapshot, and a -resume run
// produces the exact JSON report of an uninterrupted run, then removes
// the snapshot.
func TestInterruptSavesSnapshotAndResumeMatches(t *testing.T) {
	args := []string{"-horizon", "2s", "-seed", "5", "-json"}
	golden, err := captureStdout(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	withCkpt := append(append([]string{}, args...), "-checkpoint-dir", dir)
	// A SIGINT that lands outside run's handler, before it is installed
	// or after the run returned, must not kill the test binary: the
	// sink takes it. The run gets a SIGINT every 20ms until it returns,
	// so the first one to reach its handler stops it, however fast the
	// simulation runs.
	sink := make(chan os.Signal, 1)
	signal.Notify(sink, os.Interrupt)
	defer signal.Stop(sink)
	errc := make(chan error, 1)
	go func() { errc <- run(withCkpt) }()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	var ierr error
	for waiting := true; waiting; {
		select {
		case ierr = <-errc:
			waiting = false
		case <-tick.C:
			if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !errors.Is(ierr, core.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want core.ErrInterrupted", ierr)
	}
	snap := filepath.Join(dir, "potsim.ckpt")
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("interrupt flushed no snapshot: %v", err)
	}

	resumed, err := captureStdout(t, func() error {
		return run(append(append([]string{}, withCkpt...), "-resume"))
	})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if resumed != golden {
		t.Error("resumed report differs from uninterrupted run")
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Error("completed run left its snapshot behind")
	}
}

func TestResumeFlagRequiresCheckpointDir(t *testing.T) {
	if err := run([]string{"-horizon", "10ms", "-resume"}); err == nil {
		t.Error("-resume without -checkpoint-dir accepted")
	}
}

// TestResumeWithoutSnapshotStartsFresh: -resume with an empty
// checkpoint directory is not an error — the run simply starts over.
func TestResumeWithoutSnapshotStartsFresh(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-horizon", "10ms",
		"-checkpoint-dir", dir, "-resume"}); err != nil {
		t.Fatal(err)
	}
}
