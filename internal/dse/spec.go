// Package dse is the design-space-exploration campaign engine: it
// lazily enumerates a (mesh x tech node x TDP fraction x test interval
// x policy x seed) design space from a JSON campaign spec, runs every
// cell on the internal/batch worker pool, and maintains a Pareto
// frontier over {throughput penalty, test coverage, peak temperature,
// power headroom} with successive-halving pruning: an optional
// short-horizon screening pass discards dominated regions cheaply and
// only the survivors are re-run at the full horizon.
//
// Robustness is the package's contract, built from the repo's
// durability primitives:
//
//   - The campaign journal (internal/batch JSONL journals, one per
//     stage) makes the whole campaign kill-anywhere resumable: a run
//     SIGKILLed at any instant resumes against the same directory and
//     produces a byte-identical final frontier at any worker count.
//   - A cell that exhausts its retry budget — panic, watchdog timeout,
//     guard violation, plain error — lands in a quarantine record:
//     reported, durably journaled, excluded from the frontier, and the
//     campaign continues. The result is a partial frontier with
//     explicit gap rows, never an aborted campaign.
//   - Retry backoff is capped and deterministic (batch.RetryBackoffMax).
//   - Progress, ETA and quarantine statistics stream to stderr and an
//     atomically-rewritten status file.
package dse

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"potsim/internal/core"
	"potsim/internal/tech"
	"potsim/internal/workload"
)

// MaxCampaignCells bounds the enumerated space when the spec does not
// set its own maxCells: a fat-fingered axis (say, 10000 seeds) should
// fail validation loudly, not start a decade-long campaign.
const MaxCampaignCells = 16_000_000

// Spec is one campaign: the axes of the design space, the simulation
// horizon, and the optional screening rung. It is deliberately a plain
// JSON document so campaigns are versionable artifacts; unknown keys
// are rejected on parse rather than silently ignored.
type Spec struct {
	// Name identifies the campaign in journals, status and reports.
	Name string `json:"name"`

	// Meshes lists mesh geometries as "WxH" (e.g. "8x8", "16x16").
	Meshes []string `json:"meshes"`

	// Nodes lists technology nodes by name (45nm, 32nm, 22nm, 16nm).
	Nodes []string `json:"nodes"`

	// TDPFractions lists dark-silicon power budgets as fractions of the
	// chip's theoretical peak, each in (0, 1].
	TDPFractions []float64 `json:"tdpFractions"`

	// BaseIntervalsMS lists criticality base test intervals in
	// milliseconds of simulated time.
	BaseIntervalsMS []float64 `json:"baseIntervalsMS"`

	// Policies lists test policies (pots, naive, periodic, notest).
	Policies []string `json:"policies"`

	// Seeds is the replication count per point; cell seeds are 1..Seeds.
	Seeds int `json:"seeds"`

	// HorizonMS is the full-evaluation simulated horizon in ms.
	HorizonMS float64 `json:"horizonMS"`

	// Screen, when present, adds the successive-halving screening rung:
	// every cell first runs at the (much shorter) screening horizon and
	// only cells within KeepRanks non-dominated ranks of the screening
	// frontier graduate to the full horizon.
	Screen *ScreenSpec `json:"screen,omitempty"`

	// MeanInterarrivalMS is the Poisson application interarrival in ms
	// for a 64-core mesh; arrivals (and memory capacity) scale with core
	// count so every mesh size sees comparable pressure. 0 selects the
	// repo default (2 ms).
	MeanInterarrivalMS float64 `json:"meanInterarrivalMS,omitempty"`

	// Mapper is the runtime mapping policy for every cell. The default
	// NN keeps the mapping identical across test policies so the
	// penalty objective isolates the testing overhead.
	Mapper string `json:"mapper,omitempty"`

	// EnableFaults turns on stochastic fault injection at
	// FaultRatePerSec (0 selects the injector default).
	EnableFaults    bool    `json:"enableFaults,omitempty"`
	FaultRatePerSec float64 `json:"faultRatePerSec,omitempty"`

	// MaxCells overrides the MaxCampaignCells safety bound.
	MaxCells int64 `json:"maxCells,omitempty"`
}

// ScreenSpec configures the screening rung of successive halving.
type ScreenSpec struct {
	// HorizonMS is the screening horizon in ms; it must be shorter than
	// the full horizon (that is the whole point).
	HorizonMS float64 `json:"horizonMS"`

	// KeepRanks is how many non-dominated ranks of the screening
	// results survive to the full horizon: 1 keeps exactly the
	// screening frontier, 2 (the default) adds one rank of margin for
	// points the short horizon misjudges.
	KeepRanks int `json:"keepRanks,omitempty"`
}

// ParseSpec decodes a campaign spec strictly: unknown keys, trailing
// garbage and validation failures are all errors. A misspelled axis
// must never silently shrink a week-long campaign.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("dse: campaign spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("dse: campaign spec has trailing content after the JSON object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and parses the campaign spec at path.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// parseMesh parses a "WxH" geometry token.
func parseMesh(s string) (w, h int, err error) {
	a, b, ok := strings.Cut(s, "x")
	if !ok {
		return 0, 0, fmt.Errorf("dse: mesh %q is not WxH", s)
	}
	w, err = strconv.Atoi(a)
	if err != nil {
		return 0, 0, fmt.Errorf("dse: mesh %q width: %w", s, err)
	}
	h, err = strconv.Atoi(b)
	if err != nil {
		return 0, 0, fmt.Errorf("dse: mesh %q height: %w", s, err)
	}
	if w < 1 || h < 1 || w > core.MaxMeshSide || h > core.MaxMeshSide {
		return 0, 0, fmt.Errorf("dse: mesh %q outside the supported 1x1..%dx%d range",
			s, core.MaxMeshSide, core.MaxMeshSide)
	}
	if w*h < biggestLibraryGraph() {
		return 0, 0, fmt.Errorf("dse: mesh %q too small: the embedded task-graph library needs %d cores",
			s, biggestLibraryGraph())
	}
	return w, h, nil
}

// biggestLibraryGraph is the core count the largest embedded task graph
// needs — core.Config.Validate rejects smaller meshes, so the spec does
// too, at load time.
func biggestLibraryGraph() int {
	biggest := 0
	for _, g := range workload.Library() {
		if g.Size() > biggest {
			biggest = g.Size()
		}
	}
	return biggest
}

// parsePolicy resolves a policy token.
func parsePolicy(s string) (core.TestPolicyKind, error) {
	switch core.TestPolicyKind(s) {
	case core.PolicyPOTS, core.PolicyNoTest, core.PolicyNaive, core.PolicyPeriodic:
		return core.TestPolicyKind(s), nil
	}
	return "", fmt.Errorf("dse: unknown test policy %q (want pots, notest, naive or periodic)", s)
}

// Validate checks every axis and knob of the spec.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("dse: campaign spec needs a name")
	}
	if len(s.Meshes) == 0 || len(s.Nodes) == 0 || len(s.TDPFractions) == 0 ||
		len(s.BaseIntervalsMS) == 0 || len(s.Policies) == 0 {
		return fmt.Errorf("dse: campaign %q: every axis (meshes, nodes, tdpFractions, baseIntervalsMS, policies) needs at least one value", s.Name)
	}
	for _, m := range s.Meshes {
		if _, _, err := parseMesh(m); err != nil {
			return err
		}
	}
	for _, n := range s.Nodes {
		if _, err := tech.ByName(n); err != nil {
			return err
		}
	}
	for _, f := range s.TDPFractions {
		if !(f > 0 && f <= 1) {
			return fmt.Errorf("dse: tdpFraction %v outside (0, 1]", f)
		}
	}
	for _, iv := range s.BaseIntervalsMS {
		if !(iv > 0) {
			return fmt.Errorf("dse: baseIntervalsMS entry %v must be positive", iv)
		}
	}
	for _, p := range s.Policies {
		if _, err := parsePolicy(p); err != nil {
			return err
		}
	}
	if s.Seeds < 1 {
		return fmt.Errorf("dse: seeds must be >= 1, got %d", s.Seeds)
	}
	if !(s.HorizonMS > 0) {
		return fmt.Errorf("dse: horizonMS must be positive, got %v", s.HorizonMS)
	}
	if s.Screen != nil {
		if !(s.Screen.HorizonMS > 0) {
			return fmt.Errorf("dse: screen.horizonMS must be positive, got %v", s.Screen.HorizonMS)
		}
		if s.Screen.HorizonMS >= s.HorizonMS {
			return fmt.Errorf("dse: screen.horizonMS %v must be shorter than horizonMS %v",
				s.Screen.HorizonMS, s.HorizonMS)
		}
		if s.Screen.KeepRanks < 0 {
			return fmt.Errorf("dse: screen.keepRanks must be >= 0, got %d", s.Screen.KeepRanks)
		}
	}
	if s.MeanInterarrivalMS < 0 {
		return fmt.Errorf("dse: meanInterarrivalMS must be >= 0, got %v", s.MeanInterarrivalMS)
	}
	if s.Mapper != "" {
		// The mapper name is validated by core.Config.Validate on every
		// cell; checking here keeps the failure at spec-load time.
		probe := core.DefaultConfig()
		probe.MapperName = s.Mapper
		if err := probe.Validate(); err != nil {
			return fmt.Errorf("dse: mapper %q: %w", s.Mapper, err)
		}
	}
	if s.FaultRatePerSec < 0 {
		return fmt.Errorf("dse: faultRatePerSec must be >= 0, got %v", s.FaultRatePerSec)
	}
	if s.MaxCells < 0 {
		return fmt.Errorf("dse: maxCells must be >= 0, got %d", s.MaxCells)
	}
	limit := s.MaxCells
	if limit == 0 {
		limit = MaxCampaignCells
	}
	count := int64(1)
	for _, axis := range []int{len(s.Meshes), len(s.Nodes), len(s.TDPFractions),
		len(s.BaseIntervalsMS), len(s.Policies), s.Seeds} {
		if int64(axis) > limit || count*int64(axis) > limit {
			return fmt.Errorf("dse: campaign %q enumerates more than %d cells; raise maxCells if this scale is intentional", s.Name, limit)
		}
		count *= int64(axis)
	}
	return nil
}

// keepRanks resolves the screening survivor depth (default 2).
func (s *Spec) keepRanks() int {
	if s.Screen == nil || s.Screen.KeepRanks == 0 {
		return 2
	}
	return s.Screen.KeepRanks
}

// Fingerprint is a stable content hash of the spec. Journals carry it
// in their meta string, so a resumed campaign can never silently mix
// results computed under a different spec.
func (s *Spec) Fingerprint() (string, error) {
	blob, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("dse: fingerprinting spec: %w", err)
	}
	sum := sha256.Sum256(blob)
	return fmt.Sprintf("%x", sum[:12]), nil
}
