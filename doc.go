// Package potsim reproduces "Power-aware online testing of manycore
// systems in the dark silicon era" (Haghbayan et al., DATE 2015): an
// epoch-stepped manycore simulator with a PID-driven power capper,
// DVFS down to near-threshold, runtime task-graph mapping, aging-driven
// test criticality, SBST routine execution with MISR signatures, fault
// injection, a wormhole-mesh NoC, and — at the centre — the power-aware
// non-intrusive online test scheduler the paper proposes.
//
// The top-level package re-exports the public simulation API so that
// downstream users need a single import:
//
//	sys, err := potsim.New(potsim.DefaultConfig())
//	rep, err := sys.Run()
//	fmt.Print(rep.Summary())
//
// The subsystems live in internal/ packages (sim, tech, power, thermal,
// dvfs, aging, faults, sbst, noc, workload, mapping, scheduler, core,
// metrics, expt); see DESIGN.md for the inventory and EXPERIMENTS.md for
// the reproduced evaluation.
package potsim

import (
	"potsim/internal/core"
	"potsim/internal/expt"
)

// Config describes one simulation run; see internal/core for the fields.
type Config = core.Config

// Report is the outcome of one run.
type Report = core.Report

// System is an assembled manycore simulation.
type System = core.System

// Test-policy identifiers accepted by Config.TestPolicy.
const (
	PolicyPOTS     = core.PolicyPOTS
	PolicyNoTest   = core.PolicyNoTest
	PolicyNaive    = core.PolicyNaive
	PolicyPeriodic = core.PolicyPeriodic
)

// DefaultConfig returns the paper's headline setup (8x8 mesh, 16nm,
// binding dark-silicon TDP, TUM mapper, POTS test scheduler).
func DefaultConfig() Config { return core.DefaultConfig() }

// New assembles a system from a configuration.
func New(cfg Config) (*System, error) { return core.New(cfg) }

// ExperimentIDs lists the reproduced experiments (E1..E19).
func ExperimentIDs() []string { return expt.IDs() }

// RunExperiment regenerates one experiment; quick mode shrinks horizons
// and seed counts.
func RunExperiment(id string, quick bool) (*expt.Result, error) {
	r := &expt.Runner{Quick: quick}
	return r.Run(id)
}
