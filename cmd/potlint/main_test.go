package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"potsim/internal/lint"
)

// runPotlint invokes run() as the CLI would, capturing both streams.
func runPotlint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFixtureFindings is the acceptance check from the issue: seeding
// the PR-2 flit bug (map-order injection in FireFirstIteration) or a
// time.Now() into internal/core makes potlint fail. The fixture module
// carries both, plus a discarded Snapshot error.
func TestFixtureFindings(t *testing.T) {
	code, stdout, stderr := runPotlint(t, "-C", "testdata/fixture", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	for _, wanted := range []string{
		"core.go",
		"map iteration order is randomized",
		"time.Now reads the host clock",
		"error from Engine.Snapshot is assigned to _",
		"field Store.dirty is not referenced by Snapshot or Restore",
		"os.WriteFile in durable package checkpoint is not crash-atomic",
		"goroutine has no visible termination path",
	} {
		if !strings.Contains(stdout, wanted) {
			t.Errorf("stdout missing %q:\n%s", wanted, stdout)
		}
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr missing findings summary: %s", stderr)
	}
	if strings.Contains(stdout, "clean.go") {
		t.Errorf("the clean package must not be flagged:\n%s", stdout)
	}
}

func TestFixtureJSON(t *testing.T) {
	code, stdout, stderr := runPotlint(t, "-C", "testdata/fixture", "-json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("stdout is not a JSON diagnostic array: %v\n%s", err, stdout)
	}
	analyzers := map[string]bool{}
	for _, d := range diags {
		analyzers[d.Analyzer] = true
		if d.Pos.Filename == "" || d.Pos.Line == 0 {
			t.Errorf("diagnostic missing position: %+v", d)
		}
	}
	for _, a := range []string{"maporder", "wallclock", "snaperr", "snapfields", "atomicwrite", "goroleak"} {
		if !analyzers[a] {
			t.Errorf("expected a %s finding in %v", a, diags)
		}
	}
}

// TestFixtureSARIF checks the -sarif mode end to end: a valid SARIF
// 2.1.0 log with one rule per analyzer, repo-relative URIs, and one
// result per finding (exit stays 1 so CI still fails the job).
func TestFixtureSARIF(t *testing.T) {
	code, stdout, stderr := runPotlint(t, "-C", "testdata/fixture", "-sarif", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("stdout is not SARIF JSON: %v\n%s", err, stdout)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("want one 2.1.0 run, got version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "potlint" {
		t.Errorf("driver name = %q, want potlint", run.Tool.Driver.Name)
	}
	if got, want := len(run.Tool.Driver.Rules), len(lint.All()); got != want {
		t.Errorf("rules = %d, want one per analyzer (%d)", got, want)
	}
	if len(run.Results) == 0 {
		t.Fatal("no results for a fixture full of seeded bugs")
	}
	byRule := map[string]bool{}
	for _, r := range run.Results {
		byRule[r.RuleID] = true
		if r.Level != "error" {
			t.Errorf("result level = %q, want error", r.Level)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result has %d locations, want 1", len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.Region.StartLine == 0 || loc.ArtifactLocation.URI == "" {
			t.Errorf("result missing location: %+v", r)
		}
		if filepath.IsAbs(loc.ArtifactLocation.URI) {
			t.Errorf("URI %q should be repo-relative for CI annotations", loc.ArtifactLocation.URI)
		}
	}
	for _, a := range []string{"maporder", "atomicwrite", "snapfields", "goroleak"} {
		if !byRule[a] {
			t.Errorf("expected a %s result in the SARIF log", a)
		}
	}
}

func TestChecksFilter(t *testing.T) {
	code, stdout, stderr := runPotlint(t, "-C", "testdata/fixture", "-checks", "wallclock", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "time.Now") {
		t.Errorf("wallclock finding missing:\n%s", stdout)
	}
	if strings.Contains(stdout, "map iteration order") {
		t.Errorf("-checks wallclock must filter out maporder:\n%s", stdout)
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, stdout, stderr := runPotlint(t, "-C", "testdata/fixture", "./internal/clean")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s stderr: %s", code, stdout, stderr)
	}
	if strings.TrimSpace(stdout) != "" {
		t.Errorf("clean run should print nothing, got:\n%s", stdout)
	}
}

func TestAnalyzersFlagListsSuite(t *testing.T) {
	code, stdout, _ := runPotlint(t, "-analyzers")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, a := range lint.All() {
		if !strings.Contains(stdout, a.Name) {
			t.Errorf("-analyzers output missing %s:\n%s", a.Name, stdout)
		}
	}
}

func TestUnknownCheckFails(t *testing.T) {
	code, _, stderr := runPotlint(t, "-checks", "nosuch", "./...")
	if code != 1 || !strings.Contains(stderr, "nosuch") {
		t.Fatalf("exit = %d, stderr = %q; want failure naming the bad analyzer", code, stderr)
	}
}
