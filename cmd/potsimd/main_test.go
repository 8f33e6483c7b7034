package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"potsim/internal/service"
)

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"-data-dir", "/tmp/x", "-queue", "3",
		"-workers", "5", "-checkpoint-every", "-1",
		"-max-per-tenant", "-1", "-drain-timeout", "5s"})
	if err != nil {
		t.Fatal(err)
	}
	if o.dataDir != "/tmp/x" || o.queue != 3 || o.workers != 5 ||
		o.ckptEvery != -1 || o.maxPerTenant != -1 ||
		o.drainTimeout != 5*time.Second {
		t.Fatalf("parsed options: %+v", o)
	}
	if o.addr != "127.0.0.1:8080" {
		t.Fatalf("default addr: %q", o.addr)
	}
}

func TestParseArgsErrors(t *testing.T) {
	cases := [][]string{
		{}, // missing -data-dir
		{"-data-dir", "/tmp/x", "-queue", "0"},
		{"-data-dir", "/tmp/x", "-workers", "0"},
		{"-data-dir", "/tmp/x", "-drain-timeout", "0s"},
		{"-data-dir", "/tmp/x", "-no-such-flag"},
	}
	for _, args := range cases {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// buildDaemon compiles potsimd once per test binary.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "potsimd")
	cmd := exec.Command("go", "build", "-o", bin, "potsim/cmd/potsimd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building potsimd: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running potsimd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port

	lastID       string // from the most recent submit
	lastCacheHit bool
}

// startDaemon launches potsimd on an ephemeral port and waits until it
// answers /readyz.
func startDaemon(t *testing.T, bin, dataDir string, extra ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{
		"-data-dir", dataDir,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if blob, err := os.ReadFile(addrFile); err == nil && len(blob) > 0 {
			base := "http://" + strings.TrimSpace(string(blob))
			resp, err := http.Get(base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return &daemon{cmd: cmd, base: base}
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (d *daemon) submit(t *testing.T, body string) service.State {
	t.Helper()
	resp, err := http.Post(d.base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, blob)
	}
	var sr struct {
		ID       string        `json:"id"`
		State    service.State `json:"state"`
		CacheHit bool          `json:"cacheHit"`
	}
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatal(err)
	}
	d.lastID, d.lastCacheHit = sr.ID, sr.CacheHit
	return sr.State
}

func (d *daemon) status(t *testing.T, id string) service.Status {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func (d *daemon) waitDone(t *testing.T, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := d.status(t, id)
		switch st.State {
		case service.StateDone:
			resp, err := http.Get(d.base + "/v1/jobs/" + id + "/result")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			blob, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result: %d %s", resp.StatusCode, blob)
			}
			return blob
		case service.StateFailed, service.StateCanceled:
			t.Fatalf("job %s settled as %q: %s", id, st.State, st.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// TestDaemonSurvivesSIGKILL is the acceptance test of the PR: kill -9
// the daemon mid-job, restart it on the same data directory, and the
// finished result is byte-identical to a never-interrupted run — and an
// identical re-submission afterwards is served from the cache.
func TestDaemonSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	bin := buildDaemon(t)
	spec := `{"kind": "sim", "config": {"Horizon": 1500000000, "Seed": 42}}`

	// Golden: an uninterrupted run in its own data dir.
	goldenDir := t.TempDir()
	g := startDaemon(t, bin, goldenDir)
	g.submit(t, spec)
	golden := g.waitDone(t, g.lastID)
	_ = g.cmd.Process.Signal(syscall.SIGTERM)
	_, _ = g.cmd.Process.Wait()

	// Victim: SIGKILL mid-job. Frequent snapshots so the kill lands
	// well past the last checkpoint with plenty of run left.
	dataDir := t.TempDir()
	d1 := startDaemon(t, bin, dataDir, "-checkpoint-every", "50")
	d1.submit(t, spec)
	id := d1.lastID
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := d1.status(t, id)
		if st.Progress.Epochs >= 2000 {
			break
		}
		switch st.State {
		case service.StateDone, service.StateFailed, service.StateCanceled:
			t.Fatalf("job settled as %q before the kill", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made progress")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := d1.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		t.Fatal(err)
	}
	_, _ = d1.cmd.Process.Wait()

	// Restart on the same directory: the job is recovered, resumed from
	// its last snapshot, and finishes byte-identically.
	d2 := startDaemon(t, bin, dataDir, "-checkpoint-every", "50")
	st := d2.status(t, id)
	if st.ID != id {
		t.Fatalf("job %s not recovered: %+v", id, st)
	}
	resumed := d2.waitDone(t, id)
	if !bytes.Equal(golden, resumed) {
		t.Fatalf("resumed result differs from uninterrupted run (%d vs %d bytes)", len(resumed), len(golden))
	}

	// An identical submission now comes straight from the cache.
	d2.submit(t, spec)
	if !d2.lastCacheHit {
		t.Fatal("re-submission after resume missed the cache")
	}
	cached := d2.waitDone(t, d2.lastID)
	if !bytes.Equal(golden, cached) {
		t.Fatal("cached result differs from uninterrupted run")
	}
	var stats service.Stats
	resp, err := http.Get(d2.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.CacheHits < 1 || stats.Recovered != 1 {
		t.Fatalf("stats after resume: %+v", stats)
	}
}

// TestDaemonSIGTERMDrainsCleanly: with no running jobs a SIGTERM exits
// zero promptly.
func TestDaemonSIGTERMDrainsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, t.TempDir())
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v, want clean drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
}
