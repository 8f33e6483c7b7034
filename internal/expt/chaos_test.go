package expt

import (
	"errors"
	"strings"
	"testing"
	"time"

	"potsim/internal/batch"
)

func TestParseChaos(t *testing.T) {
	if c, err := ParseChaos(""); c != nil || err != nil {
		t.Errorf("empty spec: got %v, %v", c, err)
	}
	if _, err := ParseChaos("meteor"); err == nil {
		t.Error("bogus mode accepted")
	}
	c, err := ParseChaos("panic:seed=2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Mode != "panic" || c.Match != "seed=2" {
		t.Errorf("parsed %+v", c)
	}
	if !c.Targets("mapper=NN seed=2") || c.Targets("mapper=NN seed=3") {
		t.Error("label matching broken")
	}
	if (*Chaos)(nil).Targets("mapper=NN seed=2") {
		t.Error("a nil Chaos targets a cell")
	}
}

// chaosRunner targets one seed of E5 so sibling cells stay healthy.
func chaosRunner(mode string) *Runner {
	return &Runner{Quick: true, Workers: 2,
		Chaos: &Chaos{Mode: mode, Match: "mapper=FF"}}
}

func TestChaosPanicDegradesToPartialTable(t *testing.T) {
	res, err := chaosRunner("panic").E5()
	if err == nil {
		t.Fatal("injected panic reported success")
	}
	var pe *batch.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("error %v carries no *batch.PanicError", err)
	}
	if !strings.Contains(err.Error(), "mapper=FF") {
		t.Errorf("error does not name the failed cell: %v", err)
	}
	if res == nil || res.Table == nil {
		t.Fatal("no degraded result emitted")
	}
	rendered := res.Table.Render()
	if !strings.Contains(rendered, "n/a") {
		t.Errorf("failed group not marked n/a:\n%s", rendered)
	}
	// The surviving mappers still have real rows.
	for _, m := range []string{"NN", "CoNA", "TUM"} {
		if !strings.Contains(rendered, m) {
			t.Errorf("surviving mapper %s missing from table:\n%s", m, rendered)
		}
	}
}

func TestChaosErrorNamesEveryFailedCell(t *testing.T) {
	r := &Runner{Quick: true, Workers: 2, Chaos: &Chaos{Mode: "error"}}
	res, err := r.E11()
	if err == nil {
		t.Fatal("injected errors reported success")
	}
	for _, label := range []string{"mode=txn", "mode=flit"} {
		if !strings.Contains(err.Error(), label) {
			t.Errorf("aggregate error does not name %s: %v", label, err)
		}
	}
	if res == nil || !strings.Contains(res.Table.Render(), "n/a") {
		t.Error("fully failed experiment still must render an n/a table")
	}
	if !strings.Contains(res.Extra, "n/a") {
		t.Errorf("E11 deviation note should degrade: %q", res.Extra)
	}
}

func TestChaosNaNCaughtBySanityGate(t *testing.T) {
	res, err := chaosRunner("nan").E5()
	if err == nil {
		t.Fatal("NaN-poisoned report passed the sanity gate")
	}
	if !strings.Contains(err.Error(), "sanity") {
		t.Errorf("failure not attributed to the sanity gate: %v", err)
	}
	if res == nil || !strings.Contains(res.Table.Render(), "n/a") {
		t.Error("poisoned group not degraded to n/a")
	}
	// The poison must not leak into the rendered numbers.
	if strings.Contains(res.Table.Render(), "NaN") {
		t.Errorf("NaN leaked into the table:\n%s", res.Table.Render())
	}
}

func TestChaosHangHitsWatchdog(t *testing.T) {
	r := chaosRunner("hang")
	r.CellTimeout = 50 * time.Millisecond
	start := time.Now()
	res, err := r.E5()
	if err == nil {
		t.Fatal("hung cell reported success")
	}
	var te *batch.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error %v carries no *batch.TimeoutError", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("watchdog took %v to fire", elapsed)
	}
	if res == nil || !strings.Contains(res.Table.Render(), "n/a") {
		t.Error("timed-out group not degraded to n/a")
	}
}

func TestChaosFlakyRescuedByRetry(t *testing.T) {
	r := chaosRunner("flaky")
	r.Retries = 2
	res, err := r.E5()
	if err != nil {
		t.Fatalf("retry did not rescue the flaky cell: %v", err)
	}
	if strings.Contains(res.Table.Render(), "n/a") {
		t.Errorf("rescued run still degraded:\n%s", res.Table.Render())
	}
}

func TestChaosFlakyWithoutRetryFails(t *testing.T) {
	res, err := chaosRunner("flaky").E5()
	if err == nil {
		t.Fatal("flaky cell with no retry budget reported success")
	}
	if res == nil || !strings.Contains(res.Table.Render(), "n/a") {
		t.Error("failed flaky group not degraded")
	}
}

// TestChaosRescuedRunMatchesHealthyRun: a run rescued by retry renders
// byte-identically to an uninjected run — failure handling must never
// perturb the numbers.
func TestChaosRescuedRunMatchesHealthyRun(t *testing.T) {
	healthy, err := (&Runner{Quick: true, Workers: 2}).E5()
	if err != nil {
		t.Fatal(err)
	}
	rescued, err := func() (*Result, error) {
		r := chaosRunner("flaky")
		r.Retries = 1
		return r.E5()
	}()
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Render() != rescued.Render() {
		t.Errorf("rescued render diverged:\n--- healthy\n%s\n--- rescued\n%s",
			healthy.Render(), rescued.Render())
	}
}
