package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/cover"
	"repro/internal/sat"
	"repro/internal/trace"
)

// CEGARResult is the outcome of CEGARDiagnose. The embedded BSATResult
// carries the solution set (identical to monolithic BSAT), the timings
// and the final, lazily grown, instance size; the extra fields count the
// work of the implicit hitting set loop. Queries against the live
// session see only the encoded copies: ExtractFunctions reconstructs
// Care tables from Copies of the m tests, a subset of what the
// monolithic result would yield.
type CEGARResult struct {
	BSATResult
	// Copies is the number of test copies encoded to extract cores; the
	// monolithic instance always encodes len(tests).
	Copies int
	// Refinements counts the cores: the conflicts, one per refuted
	// candidate, whose minimal hitting sets are the answers.
	Refinements int
	// Checked counts candidate corrections validated against the full
	// test-set by the simulation oracle.
	Checked int
}

// CEGARDiagnose answers BSAT's question as the minimal hitting sets of
// SAT-derived conflicts, the multiple-observation implicit hitting set
// scheme of Ignatiev, Morgado & Marques-Silva.
//
// A conflict (core) is a set of candidate gates that must contain a
// corrected gate for some test. Each test copy has its own correction
// values, so by Reiter's duality a gate set is a valid correction
// exactly when it hits every conflict, and BSAT's answers (the
// irredundant valid corrections of size <= K) are the minimal hitting
// sets of size <= K of all conflicts. COV runs the same covering search
// over path-traced sets instead, which Lemmas 2 and 4 show are neither
// sound nor complete.
//
// The conflicts are found lazily by cover.EnumerateImplicit, which
// proposes candidates by size and whose doc comment carries the
// exactness argument. Each candidate D is checked by the incremental
// simulation oracle (Validator.FirstRefuting). When test t refutes D,
// t's copy, encoded at most once into a guarded cnf.DiagSession, is
// solved under t's guard and ¬sel for every candidate of t's output
// cone outside D. That is UNSAT, and the failed-assumption core
// (Solver.ConflictSet), mapped back to gates, is one new conflict, which
// D misses.
//
// Options mirror BSATOptions. MaxConflicts bounds each core solve;
// Timeout and Ctx are polled between candidates and inside the solves;
// MaxSolutions stops at the cap. Each of these returns the answers
// confirmed so far with Complete=false. Shards is accepted and ignored:
// the SAT work left is one core per refuted candidate, each proposed
// from the cores before it, so the loop is sequential by design, and
// the answers are the same for every shard count. Groups and Golden are
// rejected: their validity semantics (shared select lines across frame
// instances; all-output constraints) are not what the simulation
// oracle checks.
//
// A traced run laps "session", "check", "core" and "master" on the
// span carried by Ctx and counts "cores", "checked" and "nodes" (the
// covering search nodes).
func CEGARDiagnose(c *circuit.Circuit, tests circuit.TestSet, opts BSATOptions) (*CEGARResult, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("core: CEGARDiagnose requires K >= 1, got %d", opts.K)
	}
	if len(tests) == 0 {
		return nil, fmt.Errorf("core: CEGARDiagnose requires a non-empty test-set")
	}
	if opts.Groups != nil {
		return nil, fmt.Errorf("core: CEGARDiagnose does not support grouped select lines; use BSAT")
	}
	if opts.Golden != nil {
		return nil, fmt.Errorf("core: CEGARDiagnose does not support golden all-output constraints; use BSAT")
	}
	if opts.K > maxValidateGates {
		return nil, fmt.Errorf("core: CEGARDiagnose requires K <= %d (simulation oracle bound), got %d", maxValidateGates, opts.K)
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	span := trace.FromContext(ctx)

	// The session needs no ladder (the master bounds the size) and
	// guards every copy, so a core solve binds only its own test.
	dopts := opts.diagOptions()
	dopts.MaxK, dopts.GuardTests = 0, true
	cores := &coreSource{sess: cnf.NewSession(c, dopts), tests: tests, copyOf: make([]int, len(tests))}
	for i := range cores.copyOf {
		cores.copyOf[i] = -1
	}
	sess := cores.sess
	if opts.Steer != nil {
		opts.Steer(sess)
	}
	sess.Solver.SetBudget(opts.MaxConflicts, 0)
	oracle := NewValidator(c, tests)
	span.Lap("session")

	// Timing discipline matches BSAT: copy encoding stays out of the
	// enumeration columns, so the Table 2 columns remain comparable.
	res := &CEGARResult{BSATResult: BSATResult{sess: sess}}
	var failure error
	start, buildBase := time.Now(), sess.BuildTime
	found, err := cover.EnumerateImplicit(cover.Options{MaxK: opts.K, MaxSolutions: opts.MaxSolutions, Ctx: ctx},
		func(d []int) ([]int, bool, bool) {
			span.Lap("master")
			res.Checked++
			t := oracle.FirstRefuting(d)
			span.Lap("check")
			if t < 0 {
				if res.Timings.One == 0 {
					res.Timings.One = time.Since(start) - (sess.BuildTime - buildBase)
				}
				return nil, true, true
			}
			core, st := cores.conflict(ctx, t, d)
			span.Lap("core")
			if st == sat.StatusSat {
				failure = fmt.Errorf("core: test %d refutes %v in simulation but not in its SAT copy", t, d)
			}
			if st == sat.StatusUnsat {
				res.Refinements++
			}
			return core, false, st == sat.StatusUnsat
		})
	if err == nil {
		err = failure
	}
	if err != nil {
		return nil, err
	}
	for _, d := range found.Covers {
		res.Solutions = append(res.Solutions, NewCorrection(d))
	}
	res.Complete = found.Complete
	res.Copies = sess.NumTests()
	res.Timings.All = max(time.Since(start)-(sess.BuildTime-buildBase), 0)
	res.Timings.CNF = sess.BuildTime
	res.Vars, res.Clauses = sess.Size()
	res.Stats = sess.Solver.Stats
	res.Canonicalize()
	span.Lap("master")
	span.Counter("cores", int64(res.Refinements))
	span.Counter("checked", int64(res.Checked))
	span.Counter("nodes", int64(found.Nodes))
	return res, nil
}

// coreSource extracts per-test conflicts from a guarded session that
// encodes each test at most once, when it first refutes a candidate.
type coreSource struct {
	sess    *cnf.DiagSession
	tests   circuit.TestSet
	copyOf  []int   // per test, its copy index, or -1 before it is encoded
	cone    [][]int // per copy, the select positions of its cone's candidates
	assumps []sat.Lit
}

// conflict solves test t's copy under its guard and ¬sel for every
// candidate of its cone outside d. On StatusUnsat it returns the
// candidates whose ¬sel is in the failed-assumption core: test t cannot
// be rectified while all of them stay uncorrected. Other statuses mean
// a budget stop (StatusUnknown) or that d rectifies t after all.
func (cs *coreSource) conflict(ctx context.Context, t int, d []int) ([]int, sat.Status) {
	sess := cs.sess
	ci := cs.copyOf[t]
	if ci < 0 {
		ci = sess.AddTest(cs.tests[t])
		cs.copyOf[t] = ci
		var cone []int
		for j, g := range sess.Candidates {
			if sess.GateVars[ci][g] != cnf.NoVar {
				cone = append(cone, j)
			}
		}
		cs.cone = append(cs.cone, cone)
	}
	cs.assumps = append(cs.assumps[:0], sess.TestGuards[ci])
	for _, j := range cs.cone[ci] {
		if !slices.Contains(d, sess.Candidates[j]) {
			cs.assumps = append(cs.assumps, sess.Sels[j].Neg())
		}
	}
	st := sess.Solver.SolveContext(ctx, cs.assumps...)
	if st != sat.StatusUnsat {
		return nil, st
	}
	// The core holds the negations of the failed assumptions: sel for a
	// candidate, ¬guard for the copy.
	core := []int{}
	for _, l := range sess.Solver.ConflictSet() {
		if g, ok := sess.Candidate(l); ok {
			core = append(core, g)
		}
	}
	return core, st
}
