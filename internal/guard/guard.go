// Package guard is the runtime invariant-checking subsystem of the
// simulator: a registry of named invariants evaluated inside the hot
// control loop, a configurable violation policy, per-invariant violation
// counters, and a bounded violation record for post-run reports.
//
// The design mirrors the paper's own philosophy of online self-checking:
// rather than silently computing garbage (a NaN chip power flowing into an
// experiment table) or dying on the first anomaly (a bare panic deep in
// the power model), a sick simulation surfaces as a structured, attributed
// error that the pipeline above can contain, count, and degrade around.
//
// Policies:
//
//   - Panic: violations crash immediately with the invariant name and
//     detail (the strictest mode; useful under a debugger).
//   - Error: violations return a *ViolationError; the simulation stops at
//     the first one with a descriptive, wrappable error (default).
//   - LogAndContinue: violations are counted, recorded (bounded) and
//     logged; the run keeps going and the report carries the tally.
package guard

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// Policy selects how a checker reacts to an invariant violation.
type Policy int

const (
	// Error stops the run at the first violation with a *ViolationError.
	Error Policy = iota
	// Panic crashes immediately (strict debugging mode).
	Panic
	// LogAndContinue records and logs the violation but lets the run
	// continue; counters accumulate and the report carries the tally.
	LogAndContinue
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case Panic:
		return "panic"
	case LogAndContinue:
		return "log"
	default:
		return "error"
	}
}

// ParsePolicy converts a flag/config spelling into a Policy. The empty
// string selects the default (Error).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "error":
		return Error, nil
	case "panic":
		return Panic, nil
	case "log", "continue", "log-and-continue":
		return LogAndContinue, nil
	default:
		return Error, fmt.Errorf("guard: unknown policy %q (want panic, error or log)", s)
	}
}

// Violation is one recorded invariant breach.
type Violation struct {
	// Invariant is the registered name, e.g. "power.finite".
	Invariant string
	// Detail describes the observed state that broke the invariant.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
}

// ViolationError is the error surfaced under the Error policy. It wraps
// the violation so callers can errors.As it out of an aggregate.
type ViolationError struct {
	V Violation
}

func (e *ViolationError) Error() string {
	return "guard: invariant violated: " + e.V.String()
}

// MaxRecorded bounds the violation record attached to reports so a
// pathological LogAndContinue run cannot grow memory without bound.
// Further violations still count; Record/Snapshot report how many were
// dropped past the bound.
const MaxRecorded = 64

// Checker evaluates invariants against a policy and keeps the tallies.
// A zero Checker is not usable; construct with New. Methods are safe for
// concurrent use (batch cells each own a checker, but the chaos harness
// may poke one from a watchdog goroutine).
type Checker struct {
	policy Policy    //potlint:nosnap configuration, chosen at construction
	log    io.Writer //potlint:nosnap log destination is process wiring, not state

	mu       sync.Mutex
	counts   map[string]int
	recorded []Violation
	dropped  int
}

// New returns a checker with the given policy, logging LogAndContinue
// violations to stderr.
func New(policy Policy) *Checker {
	return &Checker{policy: policy, log: os.Stderr, counts: make(map[string]int)}
}

// SetLog redirects LogAndContinue output (nil silences it).
func (c *Checker) SetLog(w io.Writer) { c.log = w }

// Policy returns the checker's violation policy.
func (c *Checker) Policy() Policy { return c.policy }

// Violatef reports a violation of the named invariant unconditionally,
// applying the policy: panic, return a *ViolationError, or log and
// return nil. Every call increments the invariant's counter.
func (c *Checker) Violatef(name, format string, args ...any) error {
	v := Violation{Invariant: name, Detail: fmt.Sprintf(format, args...)}

	c.mu.Lock()
	c.counts[name]++
	if len(c.recorded) < MaxRecorded {
		c.recorded = append(c.recorded, v)
	} else {
		c.dropped++
	}
	logw := c.log
	c.mu.Unlock()

	switch c.policy {
	case Panic:
		panic(&ViolationError{V: v})
	case LogAndContinue:
		if logw != nil {
			fmt.Fprintf(logw, "guard: %s\n", v)
		}
		return nil
	default:
		return &ViolationError{V: v}
	}
}

// Violations returns the total violation count across all invariants.
func (c *Checker) Violations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.counts {
		n += k
	}
	return n
}

// Counts returns the per-invariant violation counters (a copy).
func (c *Checker) Counts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// Record returns the bounded violation record (a copy) and how many
// further violations were dropped once the bound was hit.
func (c *Checker) Record() (violations []Violation, dropped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.recorded...), c.dropped
}

// Export is a consistent point-in-time view of a checker's violation
// state: totals, per-invariant counters, the bounded record and the
// overflow count, all captured under one lock acquisition. It is what a
// health endpoint serialises while the epoch loop is still violating —
// the copies it holds are private to the caller. (Snapshot/Restore, by
// contrast, are the checkpoint round-trip of the same state.)
type Export struct {
	Policy  string         `json:"policy"`
	Total   int            `json:"total"`
	Counts  map[string]int `json:"counts,omitempty"`
	Record  []Violation    `json:"record,omitempty"`
	Dropped int            `json:"dropped,omitempty"`
}

// Export captures the checker's current violation state. Safe to call
// at any time from any goroutine, including concurrently with Violatef
// from the simulation loop.
func (c *Checker) Export() Export {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := Export{Policy: c.policy.String(), Dropped: c.dropped}
	if len(c.counts) > 0 {
		e.Counts = make(map[string]int, len(c.counts))
		for k, v := range c.counts {
			e.Counts[k] = v
			e.Total += v
		}
	}
	if len(c.recorded) > 0 {
		e.Record = append([]Violation(nil), c.recorded...)
	}
	return e
}

// Summary renders the per-invariant tallies as one line, or "" when no
// invariant was ever violated.
func (c *Checker) Summary() string {
	counts := c.Counts()
	if len(counts) == 0 {
		return ""
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%d", name, counts[name])
	}
	return "guard violations: " + strings.Join(parts, " ")
}
