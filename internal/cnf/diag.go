package cnf

import (
	"repro/internal/circuit"
	"repro/internal/sat"
	"repro/internal/trace"
)

// DiagOptions configures the diagnosis SAT instance of Figure 2/3.
type DiagOptions struct {
	// Candidates lists the gate IDs eligible for correction (multiplexer
	// insertion). Nil means every internal (non-input) gate, the basic
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
	// cardinality ladder is built to width MaxK+1 so every limit
	// 1..MaxK is available as an assumption (incremental usage).
	MaxK int

	// Encoding selects the cardinality encoding (default SeqCounter).
	Encoding CardEncoding

	// ForceZero adds the advanced-approach clauses forcing the free
	// correction value c to 0 while the select line is 0, removing up to
	// |I| pointless decisions per copy (Section 2.3).
	ForceZero bool

	// ConeOnly restricts each test copy to the fanin cone of its
	// constrained output(s) instead of copying the whole circuit. The
	// projected solution space is unchanged; instance size shrinks.
	ConeOnly bool

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

	// Backend, when non-nil, supplies the SAT backend the session encodes
	// into instead of the built-in CDCL solver (sat.New). The encoders
	// only require the sat.Builder surface, so any sat.Backend
	// implementation slots in here.
	Backend sat.Backend

	// Recorder, when non-nil, is installed on the backend as its flight
	// recorder: the solver's rare search events (restarts, reductions,
	// models, budget exits) land in its ring, and clones forked for
	// sharded runs inherit it. Observation-only — the
	// search trajectory is identical with or without it.
	Recorder *trace.Recorder
}

// Instance is a built diagnosis SAT instance. It is the same object as
// the incremental DiagSession; BuildDiag is simply NewSession followed
// by AddTests.
type Instance = DiagSession

// NoVar marks an absent variable in cone-restricted copies.
const NoVar sat.Var = -1

// BuildDiag constructs the SAT instance F of the paper's Figure 2(b):
// one constrained copy of the circuit per test, a correction multiplexer
// per candidate gate whose select line is shared across copies, and a
// cardinality ladder over the select lines.
func BuildDiag(c *circuit.Circuit, tests circuit.TestSet, opts DiagOptions) *Instance {
	sess := NewSession(c, opts)
	sess.AddTests(tests)
	return sess
}

// coneFor returns the gate set to encode for one test copy, or nil for
// the full circuit.
func coneFor(c *circuit.Circuit, t circuit.Test, opts DiagOptions, allOutputs bool) []bool {
	if !opts.ConeOnly {
		return nil
	}
	if allOutputs {
		// All outputs constrained: the union cone is the whole circuit in
		// all but degenerate cases; encode everything reachable backward
		// from any output.
		cone := make([]bool, len(c.Gates))
		for _, o := range c.Outputs {
			for g, in := range c.FaninCone(o) {
				if in {
					cone[g] = true
				}
			}
		}
		return cone
	}
	return c.FaninCone(t.Output)
}
