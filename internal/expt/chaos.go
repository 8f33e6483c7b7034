package expt

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"potsim/internal/core"
)

// Chaos injects controlled failures into experiment cells so the
// degradation paths of the pipeline — panic containment, watchdog
// deadlines, retry, n/a table rows — can be exercised end to end.
// Production runs never set it; it exists for the chaos test harness and
// the -chaos flag of cmd/experiments.
type Chaos struct {
	// Mode selects the failure: "panic" (cell panics), "hang" (cell
	// blocks until its context is cancelled — pair with a cell timeout),
	// "nan" (cell runs normally, then its report is NaN-poisoned so the
	// sanity gate must reject it), "error" (cell fails immediately), or
	// "flaky" (cell fails its first attempt, then runs normally — pair
	// with retries).
	Mode string

	// Match restricts injection to cells whose label contains the
	// substring; empty targets every cell.
	Match string

	mu   sync.Mutex
	seen map[string]int // per-label attempt counts for flaky mode
}

// ParseChaos parses a -chaos flag value of the form "mode" or
// "mode:labelsubstring". The empty string means no injection.
func ParseChaos(s string) (*Chaos, error) {
	if s == "" {
		return nil, nil
	}
	mode, match, _ := strings.Cut(s, ":")
	switch mode {
	case "panic", "hang", "nan", "error", "flaky":
	default:
		return nil, fmt.Errorf(
			"expt: unknown chaos mode %q (want panic, hang, nan, error or flaky)", mode)
	}
	return &Chaos{Mode: mode, Match: match}, nil
}

// Targets reports whether the cell labelled label is targeted; a nil
// receiver targets nothing.
func (c *Chaos) Targets(label string) bool {
	return c != nil && (c.Match == "" || strings.Contains(label, c.Match))
}

// Run executes one cell; real is the untampered simulation. Cells the
// receiver does not target run real unchanged, and so does every cell
// when the receiver is nil, so cell executors call it unconditionally.
func (c *Chaos) Run(ctx context.Context, label string, real func() (*core.Report, error)) (*core.Report, error) {
	if !c.Targets(label) {
		return real()
	}
	switch c.Mode {
	case "panic":
		panic(fmt.Sprintf("chaos: injected panic in %s", label))
	case "error":
		return nil, fmt.Errorf("chaos: injected failure in %s", label)
	case "hang":
		// A cooperative hang: wakes only when the watchdog (or the batch
		// context) cancels the cell. Without a cell timeout this blocks
		// for as long as the caller does.
		<-ctx.Done()
		return nil, fmt.Errorf("chaos: hung cell %s released: %w", label, context.Cause(ctx))
	case "flaky":
		c.mu.Lock()
		if c.seen == nil {
			c.seen = make(map[string]int)
		}
		c.seen[label]++
		first := c.seen[label] == 1
		c.mu.Unlock()
		if first {
			return nil, fmt.Errorf("chaos: transient failure in %s", label)
		}
		return real()
	case "nan":
		rep, err := real()
		if err != nil {
			return nil, err
		}
		rep.MeanPowerW = math.NaN()
		return rep, nil
	}
	return real()
}
