package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/cover"
	"repro/internal/trace"
)

// CovOptions configures SCDiagnose.
type CovOptions struct {
	K            int       // maximum correction size (required)
	PT           PTOptions // path-tracing configuration for the BSIM stage
	MaxSolutions int       // cap on enumerated covers (0 = unlimited)
	// Ctx, when non-nil, cancels the covering enumeration cooperatively
	// (surfaces as an incomplete result). A span it carries records the
	// "bsim" and "cover" phases and the sets, classes, nodes and covers
	// counters.
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
// size at most K (cover.Enumerate). No effect analysis is performed, so
// solutions are not guaranteed to be valid corrections (Lemma 2).
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
	span := trace.FromContext(opts.Ctx)
	span.Lap("bsim")

	solveStart := time.Now()
	result, err := cover.Enumerate(problem, cover.Options{MaxK: opts.K, MaxSolutions: opts.MaxSolutions, Ctx: opts.Ctx})
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
	span.Lap("cover")
	span.Counter("sets", int64(len(problem.Sets)))
	span.Counter("classes", int64(result.Classes))
	span.Counter("nodes", int64(result.Nodes))
	span.Counter("covers", int64(len(result.Covers)))
	return res, nil
}
