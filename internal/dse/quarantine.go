package dse

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"potsim/internal/batch"
	"potsim/internal/guard"
)

// Quarantine failure classes, in the order they are probed along a
// cell's error chain.
const (
	QuarantinePanic   = "panic"
	QuarantineTimeout = "timeout"
	QuarantineGuard   = "guard"
	QuarantineError   = "error"
)

// QuarantineEntry records one poisoned cell: a cell that failed and was
// excluded from the campaign rather than aborting it. The entry is journaled like any
// completed cell, so a resumed campaign does not re-run a cell that
// already proved itself poisonous.
type QuarantineEntry struct {
	// Index is the cell's campaign index; Label its decoded coordinates.
	Index int64  `json:"index"`
	Label string `json:"label"`

	// Stage is the stage the cell failed in ("screen" or "full").
	Stage string `json:"stage"`

	// Class is the failure taxonomy: panic, timeout, guard or error.
	Class string `json:"class"`

	// Error is the aggregated attempt error, flattened to text.
	Error string `json:"error"`
}

// classifyQuarantine maps a cell's error onto the quarantine taxonomy by
// walking its chain.
func classifyQuarantine(err error) string {
	var pe *batch.PanicError
	if errors.As(err, &pe) {
		return QuarantinePanic
	}
	var te *batch.TimeoutError
	if errors.As(err, &te) {
		return QuarantineTimeout
	}
	var ve *guard.ViolationError
	if errors.As(err, &ve) {
		return QuarantineGuard
	}
	return QuarantineError
}

// QuarantineReport is the machine-readable record of every poisoned
// cell of a campaign, written next to the frontier CSV.
type QuarantineReport struct {
	Campaign string            `json:"campaign"`
	Cells    []QuarantineEntry `json:"cells"`
}

// ByClass tallies the report's entries per failure class.
func (r *QuarantineReport) ByClass() map[string]int {
	counts := make(map[string]int)
	for _, q := range r.Cells {
		counts[q.Class]++
	}
	return counts
}

// Summary renders a one-line quarantine digest for stderr, e.g.
// "3 cells quarantined (panic=2 timeout=1)".
func (r *QuarantineReport) Summary() string {
	if len(r.Cells) == 0 {
		return "0 cells quarantined"
	}
	counts := r.ByClass()
	classes := make([]string, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	parts := make([]string, len(classes))
	for i, c := range classes {
		parts[i] = fmt.Sprintf("%s=%d", c, counts[c])
	}
	return fmt.Sprintf("%d cells quarantined (%s)", len(r.Cells), strings.Join(parts, " "))
}

// JSON serialises the report with entries sorted by cell index.
func (r *QuarantineReport) JSON() ([]byte, error) {
	sort.Slice(r.Cells, func(i, j int) bool { return r.Cells[i].Index < r.Cells[j].Index })
	return json.MarshalIndent(r, "", "  ")
}
