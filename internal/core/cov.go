package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/cover"
)

// CovEngine selects the covering-problem solver.
type CovEngine int

// Engines: CovSAT mirrors the paper (the covering problem "was also
// solved using Zchaff"); CovBB is the explicit backtracking search whose
// O(|I|^k) complexity Table 1 cites for COV.
const (
	CovSAT CovEngine = iota
	CovBB
)

// String names the engine.
func (e CovEngine) String() string {
	switch e {
	case CovSAT:
		return "sat"
	case CovBB:
		return "backtrack"
	default:
		return fmt.Sprintf("CovEngine(%d)", int(e))
	}
}

// CovOptions configures SCDiagnose.
type CovOptions struct {
	K            int       // maximum correction size (required)
	PT           PTOptions // path-tracing configuration for the BSIM stage
	Engine       CovEngine
	MaxSolutions int   // cap on enumerated covers (0 = unlimited)
	MaxConflicts int64 // SAT budget (CovSAT only; 0 = unlimited)
	// Ctx, when non-nil, cancels the covering enumeration cooperatively
	// (surfaces as an incomplete result).
	Ctx context.Context
	// UseXList derives the candidate sets by X-injection screening
	// (XDiagnose) instead of path tracing — the alternative
	// simulation-based engine of Section 2.2.
	UseXList bool
}

// CovResult is the outcome of SCDiagnose.
type CovResult struct {
	SolutionSet
	BSIM    *BSIMResult
	Problem *cover.Problem
	Timings Timings
}

// COV implements SCDiagnose (Figure 4): run BasicSimDiagnose to obtain
// the candidate sets Ci, then enumerate every solution C* of the set
// covering problem — hit every Ci, no removable element (irredundant),
// size at most K. No effect analysis is performed, so solutions are not
// guaranteed to be valid corrections (Lemma 2).
func COV(c *circuit.Circuit, tests circuit.TestSet, opts CovOptions) (*CovResult, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("core: COV requires K >= 1, got %d", opts.K)
	}
	if len(tests) == 0 {
		return nil, fmt.Errorf("core: COV requires a non-empty test-set")
	}
	start := time.Now()
	var bsim *BSIMResult
	if opts.UseXList {
		bsim = XDiagnose(c, tests)
	} else {
		bsim = BSIM(c, tests, opts.PT)
	}
	for i, ci := range bsim.Sets {
		if len(ci) == 0 {
			return nil, fmt.Errorf("core: COV: test %d produced an empty candidate set", i)
		}
	}
	problem := cover.NewProblem(bsim.Sets)
	res := &CovResult{BSIM: bsim, Problem: problem}
	res.Timings.CNF = time.Since(start) // includes the BSIM stage, as in Table 2

	solveStart := time.Now()
	covOpts := cover.Options{MaxK: opts.K, MaxSolutions: opts.MaxSolutions, MaxConflicts: opts.MaxConflicts, Ctx: opts.Ctx}
	var (
		result *cover.Result
		err    error
	)
	switch opts.Engine {
	case CovBB:
		result, err = cover.EnumerateBB(problem, covOpts)
	default:
		result, err = cover.EnumerateSAT(problem, covOpts)
	}
	if err != nil {
		return nil, fmt.Errorf("core: COV: %w", err)
	}
	res.Complete = result.Complete
	res.Timings.One = result.First
	res.Solutions = make([]Correction, len(result.Covers))
	for i, cov := range result.Covers {
		res.Solutions[i] = Correction{Gates: cov} // sorted, and owned by the result
	}
	res.Timings.All = time.Since(solveStart)
	return res, nil
}
