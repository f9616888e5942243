package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/sat"
)

// HybridBSAT implements the first hybrid sketched in the paper's
// Section 6: "the fast engines of BSIM and COV can be used to direct the
// SAT-search by tuning the decision heuristics of the solver". It runs
// BasicSimDiagnose, then boosts the VSIDS activity of each candidate
// gate's select line proportionally to its path-trace mark count M(g)
// and sets the saved phase of highly marked selects to "selected", so
// the SAT search branches on simulation-suspected sites first.
//
// The steering only reorders the search: the solution space — and thus
// every guarantee of Lemmas 1 and 3 — is exactly that of plain BSAT.
func HybridBSAT(c *circuit.Circuit, tests circuit.TestSet, opts BSATOptions, pt PTOptions) (*BSATResult, *BSIMResult, error) {
	bsim := BSIM(c, tests, pt)
	steered := opts
	steered.Steer = func(sess *cnf.DiagSession) {
		max := 0
		for _, m := range bsim.MarkCount {
			if m > max {
				max = m
			}
		}
		if max == 0 {
			return
		}
		for j, g := range sess.Candidates {
			m := bsim.MarkCount[g]
			if m == 0 {
				continue
			}
			v := sess.Sels[j].Var()
			sess.Solver.BumpActivity(v, float64(m))
			if 2*m >= max {
				sess.Solver.SetPolarity(v, true)
			}
		}
	}
	res, err := BSAT(c, tests, steered)
	if err != nil {
		return nil, nil, fmt.Errorf("core: hybrid: %w", err)
	}
	return res, bsim, nil
}

// RepairResult is the outcome of CovGuidedRepair.
type RepairResult struct {
	// Correction is the first valid correction obtained, or empty when
	// none was found within the exploration bounds.
	Correction Correction
	Found      bool
	// CovSolution is the covering solution the repair started from.
	CovSolution Correction
	// Validated counts COV solutions confirmed valid as-is; Repaired is
	// set when the returned correction needed SAT repair (gate swaps).
	Validated int
	Repaired  bool
	Elapsed   time.Duration
}

// CovGuidedRepair implements the second hybrid of Section 6: "choose an
// initial correction (that may not be valid) and use SAT-based diagnosis
// to turn it into a valid correction". Covering solutions are tried in
// enumeration order: each is first checked by exact effect analysis
// (cheap simulation); the first valid one is returned directly. If none
// validates, the most promising covering solution seeds a SAT repair:
// its gates are assumed selected one subset at a time (largest first)
// while the solver is free to choose up to K total corrections, so the
// initial guess is minimally amended into a valid correction.
//
// The repair runs on a cnf.DiagSession built lazily only when simulation
// alone cannot settle the covering solutions. Callers that already hold
// a live session over the same circuit and test-set (e.g. from a prior
// BSAT or HybridBSAT run, via BSATResult.Session) can reuse it through
// CovGuidedRepairSession and skip even that build.
func CovGuidedRepair(c *circuit.Circuit, tests circuit.TestSet, covRes *CovResult, opts BSATOptions) (*RepairResult, error) {
	return covGuidedRepair(c, tests, nil, covRes, opts)
}

// CovGuidedRepairSession is CovGuidedRepair reusing a live diagnosis
// session instead of building one. tests is the full test-set the
// repair must be valid for; sess must encode the same circuit over
// these tests (all of them for a BSAT/HybridBSAT session, possibly a
// converged subset for a CEGAR session) with an unrestricted candidate
// set and a cardinality ladder wide enough for opts.K. Every reported
// repair is validated against the full tests by the simulation oracle,
// so partial sessions stay sound (they may just fail to repair). The
// repair queries are assumption-only, so the session stays reusable.
func CovGuidedRepairSession(sess *cnf.DiagSession, tests circuit.TestSet, covRes *CovResult, opts BSATOptions) (*RepairResult, error) {
	if !sess.CanBound(opts.K) {
		return nil, fmt.Errorf("core: reused session cannot bound corrections at K=%d (built with a smaller MaxK)", opts.K)
	}
	if len(sess.Candidates) < len(sess.Circuit.InternalGates()) {
		return nil, fmt.Errorf("core: reused session has a restricted candidate set (%d of %d internal gates); repair needs an unrestricted one",
			len(sess.Candidates), len(sess.Circuit.InternalGates()))
	}
	if !sameTests(sess.Tests, tests) && opts.K > maxValidateGates {
		// A session whose copies are not exactly this test-set (e.g. a
		// converged CEGAR abstraction) proves validity only for what it
		// encodes, so every repair must fit the simulation oracle's bound
		// to be checkable against the full test-set.
		return nil, fmt.Errorf("core: repairing over a different test-set than the session encodes requires K <= %d (oracle bound), got %d", maxValidateGates, opts.K)
	}
	return covGuidedRepair(sess.Circuit, tests, sess, covRes, opts)
}

func covGuidedRepair(c *circuit.Circuit, tests circuit.TestSet, sess *cnf.DiagSession, covRes *CovResult, opts BSATOptions) (*RepairResult, error) {
	start := time.Now()
	out := &RepairResult{}
	if len(covRes.Solutions) == 0 {
		out.Elapsed = time.Since(start)
		return out, nil
	}
	// One validator serves every candidate solution and the final repair
	// check: the per-test baselines are built once and each effect
	// analysis touches only the candidate gates' fanout cones.
	v := NewValidator(c, tests)
	for _, sol := range covRes.Solutions {
		if v.Validate(sol.Gates) {
			out.Correction = sol
			out.CovSolution = sol
			out.Found = true
			out.Validated++
			out.Elapsed = time.Since(start)
			return out, nil
		}
	}

	// No covering solution is valid as-is (the Lemma 2 situation): repair
	// the first one with SAT.
	seed := covRes.Solutions[0]
	out.CovSolution = seed
	if sess == nil {
		sess = cnf.NewSession(c, cnf.DiagOptions{MaxK: opts.K})
		sess.AddTests(tests)
	}
	solver := sess.Solver
	solver.SetBudget(opts.MaxConflicts, opts.Timeout)
	// Phase-steer toward the seed so free searches stay near it.
	for j, g := range sess.Candidates {
		if seed.Contains(g) {
			v := sess.Sels[j].Var()
			solver.BumpActivity(v, 10)
			solver.SetPolarity(v, true)
		}
	}
	active := sess.ActivationAssumps(nil) // bind every copy of guarded sessions
	// A session encoding exactly this test-set yields SAT models that
	// are valid by construction; any other session (e.g. a converged
	// CEGAR abstraction) needs the oracle to confirm each repair, and
	// repairs it cannot check are rejected (fail closed).
	mustValidate := !sameTests(sess.Tests, tests)
	subsets := subsetsLargestFirst(seed.Gates)
	for _, keep := range subsets {
		if len(keep) > opts.K {
			continue
		}
		assumps := make([]sat.Lit, 0, len(keep)+len(active)+1)
		for _, g := range keep {
			l, ok := sess.SelLit(g)
			if !ok {
				continue
			}
			assumps = append(assumps, l)
		}
		assumps = append(assumps, active...)
		assumps = append(assumps, sess.AtMost(opts.K)...)
		if solver.Solve(assumps...) == sat.StatusSat {
			gates := sess.ModelGates()
			if mustValidate && (len(gates) > maxValidateGates || !v.Validate(gates)) {
				continue
			}
			out.Correction = NewCorrection(gates)
			out.Found = true
			out.Repaired = true
			out.Elapsed = time.Since(start)
			return out, nil
		}
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// sameTests reports whether two test-sets contain identical triples in
// the same order.
func sameTests(a, b circuit.TestSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Output != b[i].Output || a[i].Want != b[i].Want || len(a[i].Vector) != len(b[i].Vector) {
			return false
		}
		for j := range a[i].Vector {
			if a[i].Vector[j] != b[i].Vector[j] {
				return false
			}
		}
	}
	return true
}

// subsetsLargestFirst yields all subsets of gates ordered by descending
// size (the full seed first, the empty set last).
func subsetsLargestFirst(gates []int) [][]int {
	n := len(gates)
	subsets := make([][]int, 0, 1<<uint(n))
	for m := 0; m < 1<<uint(n); m++ {
		var sub []int
		for i := 0; i < n; i++ {
			if m>>uint(i)&1 == 1 {
				sub = append(sub, gates[i])
			}
		}
		subsets = append(subsets, sub)
	}
	sort.SliceStable(subsets, func(i, j int) bool { return len(subsets[i]) > len(subsets[j]) })
	return subsets
}
