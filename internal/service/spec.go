package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"potsim/internal/core"
	"potsim/internal/expt"
)

// Job kinds.
const (
	// KindSim is a single simulation: one core.Config, one report.
	KindSim = "sim"
	// KindSuite is one experiment suite (E1..E19) from internal/expt.
	KindSuite = "suite"
)

// JobSpec is the body of a job submission. Exactly the fields that
// determine the job's *result* live here; execution knobs (worker
// counts, timeouts) are server configuration, excluded
// from the fingerprint because the determinism contract makes them
// result-neutral — which is precisely what lets one cached result serve
// every client whatever hardware it was computed on.
type JobSpec struct {
	// Kind selects the job type: "sim" or "suite".
	Kind string `json:"kind"`

	// Config is the simulation configuration of a sim job, decoded
	// strictly over core.DefaultConfig (partial configs overlay the
	// defaults; unknown keys are rejected, never ignored).
	Config json.RawMessage `json:"config,omitempty"`

	// Experiment names the suite of a suite job (E1..E19).
	Experiment string `json:"experiment,omitempty"`
	// Quick selects the suite's short horizons / single-seed mode.
	Quick bool `json:"quick,omitempty"`
	// BaseSeed offsets the suite's replication seeds.
	BaseSeed uint64 `json:"baseSeed,omitempty"`
	// GuardPolicy is the runtime invariant policy for the suite's cells
	// ("panic", "error" or "log"; "" = error).
	GuardPolicy string `json:"guardPolicy,omitempty"`
}

// DecodeSpec parses a submission body strictly: unknown fields are a
// client error surfaced by name, not a silent fallback to defaults.
func DecodeSpec(body []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("service: decoding job spec: %w", err)
	}
	return spec, nil
}

// SimConfig materialises a sim job's configuration: defaults overlaid
// with the submitted document, then validated. The returned config is
// what the job actually runs.
func (s *JobSpec) SimConfig() (core.Config, error) {
	cfg := core.DefaultConfig()
	if len(s.Config) > 0 {
		dec := json.NewDecoder(bytes.NewReader(s.Config))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return cfg, fmt.Errorf("service: sim config: %w", err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// Validate rejects malformed specs before they cost a queue slot.
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case KindSim:
		if s.Experiment != "" {
			return fmt.Errorf("service: sim jobs take no experiment")
		}
		_, err := s.SimConfig()
		return err
	case KindSuite:
		if len(s.Config) > 0 {
			return fmt.Errorf("service: suite jobs take no config document")
		}
		if !expt.ValidID(s.Experiment) {
			return fmt.Errorf("service: unknown experiment %q (have %v)", s.Experiment, expt.IDs())
		}
		if s.GuardPolicy != "" {
			switch strings.ToLower(s.GuardPolicy) {
			case "panic", "error", "log", "continue", "log-and-continue":
			default:
				return fmt.Errorf("service: unknown guard policy %q", s.GuardPolicy)
			}
		}
		return nil
	case "":
		return fmt.Errorf("service: job spec needs a kind (%q or %q)", KindSim, KindSuite)
	default:
		return fmt.Errorf("service: unknown job kind %q (want %q or %q)", s.Kind, KindSim, KindSuite)
	}
}

// Fingerprint is the content address of the job's result: sim jobs hash
// their materialised configuration (core.ConfigHash), suite jobs hash the
// canonical (experiment, mode, seed base, guard policy) tuple. Two
// submissions with equal fingerprints are guaranteed — by the repo's
// determinism contracts — to produce byte-identical results, so the
// cache and single-flight layers key on it.
func (s *JobSpec) Fingerprint() (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	switch s.Kind {
	case KindSim:
		cfg, err := s.SimConfig()
		if err != nil {
			return "", err
		}
		h, err := core.ConfigHash(cfg)
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256([]byte("sim|" + h))
		return fmt.Sprintf("%x", sum[:16]), nil
	default: // KindSuite, post-Validate
		canon := fmt.Sprintf("suite|%s|quick=%v|base=%d|guard=%s",
			strings.ToUpper(strings.TrimSpace(s.Experiment)), s.Quick, s.BaseSeed,
			strings.ToLower(s.GuardPolicy))
		sum := sha256.Sum256([]byte(canon))
		return fmt.Sprintf("%x", sum[:16]), nil
	}
}
