package cnf

import (
	"repro/internal/circuit"
	"repro/internal/sat"
	"repro/internal/trace"
)

// DiagOptions configures the diagnosis SAT instance of Figure 2/3.
type DiagOptions struct {
	// Candidates lists the gate IDs eligible for correction (given a
	// select line). Nil means every internal (non-input) gate, the basic
	// BSAT configuration. The advanced two-pass approach passes the
	// fanout-free-region roots here first.
	Candidates []int

	// Groups, when non-nil, overrides Candidates: each group is a set of
	// gate IDs sharing a single select line. Time-frame-expanded
	// sequential diagnosis uses one group per physical gate (all its
	// frame instances switch together, while the injected correction
	// values stay free per instance and per test, exactly as in the
	// sequential SAT diagnosis of Ali et al. that the paper cites).
	Groups [][]int

	// GroupLabels names each group in reported corrections (e.g. the
	// original gate ID of a time-frame group). Defaults to the smallest
	// member ID.
	GroupLabels []int

	// MaxK is the largest correction size the instance must support; the
	// totalizer ladder is built to width MaxK+1 so every limit
	// 1..MaxK is available as an assumption (incremental usage).
	MaxK int

	// Golden, when non-nil, supplies a reference implementation used to
	// constrain all primary outputs (not only the erroneous one) to their
	// correct values — the generalization discussed with Table 3 ("when
	// additional outputs are introduced into the diagnosis problem").
	Golden *circuit.Circuit

	// GuardTests attaches each test copy's input/output constraints to a
	// per-copy guard literal instead of asserting them, so enumeration
	// rounds can scope the active test-set by assumptions
	// (DiagSession.ActivationAssumps) — the session form of the paper's
	// test-set-splitting heuristic. Guarded copies cannot be constant-
	// folded at level 0, so monolithic single-shot instances should
	// leave this off.
	GuardTests bool

	// Recorder, when non-nil, is installed on the solver as its flight
	// recorder: the solver's rare search events (restarts, reductions,
	// models, budget exits) land in its ring, and clones forked for
	// sharded runs inherit it. Observation-only — the
	// search trajectory is identical with or without it.
	Recorder *trace.Recorder
}

// NoVar marks an absent variable: a gate outside a copy's cone.
const NoVar sat.Var = -1

// BuildDiag constructs the SAT instance F of the paper's Figure 2(b):
// one constrained copy per test of the fanin cone of that test's
// erroneous output (see coneFor), a select line per candidate gate
// relaxing its clauses in every copy (see EncodeGate), and a cardinality
// ladder over the select lines. It is NewSession followed by AddTests.
func BuildDiag(c *circuit.Circuit, tests circuit.TestSet, opts DiagOptions) *DiagSession {
	sess := NewSession(c, opts)
	sess.AddTests(tests)
	return sess
}

// coneFor returns the gates to encode for one test copy: the fanin cone
// of the copy's constrained output, or with allOutputs (Golden pins every
// output) the union of all output cones.
//
// The paper's Figure 2(b) copies the whole circuit per test; restricting
// the copy to the cone leaves the solution space projected onto the
// select lines unchanged. The cone is fanin-closed, so it is a
// self-contained sub-instance, and the part of a copy outside it only
// feeds unconstrained gates: with its inputs fixed by the test vector it
// is satisfiable under every select assignment, since every gate there
// either computes its function or, when selected, takes a free value.
// Dropping it removes logic that can never influence the constrained
// output, and with it the decisions and propagations the search would
// spend re-simulating that logic in every copy.
func coneFor(c *circuit.Circuit, t circuit.Test, allOutputs bool) circuit.Bitset {
	an := c.Analysis()
	if !allOutputs {
		return an.FaninConeBits(t.Output)
	}
	cone := circuit.NewBitset(len(c.Gates))
	for _, o := range c.Outputs {
		for i, w := range an.FaninConeBits(o) {
			cone[i] |= w
		}
	}
	return cone
}
