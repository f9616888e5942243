package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/sat"
	"repro/internal/trace"
)

// BSATOptions configures BasicSATDiagnose and the engines built on it.
type BSATOptions struct {
	K int // maximum correction size (required)

	// Candidates restricts the gates that get a select line (nil = every
	// internal gate, the basic approach).
	Candidates []int

	// Groups, with GroupLabels, makes several gate instances share one
	// select line (time-frame-expanded sequential diagnosis); see
	// cnf.DiagOptions. Overrides Candidates.
	Groups      [][]int
	GroupLabels []int

	// Golden, when set, constrains all outputs of every copy to the
	// specification values, not only the erroneous one.
	Golden *circuit.Circuit

	// MaxSolutions caps total enumerated corrections (0 = unlimited).
	MaxSolutions int

	// MaxConflicts is the per-Solve conflict budget (0 = unlimited).
	MaxConflicts int64

	// Timeout bounds the whole enumeration (0 = unlimited).
	Timeout time.Duration

	// Shards > 1 forks the enumeration into that many disjoint candidate
	// shards, each running concurrently on a cloned solver: a sequential
	// sample stage enumerates the first solutions monolithically, plans
	// balanced assumption cubes from their candidate frequencies
	// (cnf.DiagSession.PlanCubes), and the forked shards enumerate the
	// residual space in parallel. The solution set — canonical order
	// included — is identical to the monolithic enumeration when all
	// stages complete; budgets apply per stage. 0 or 1 enumerate
	// monolithically.
	Shards int

	// ShardSample bounds the sample stage of a sharded run (0 = the
	// default of 64 solutions). Ignored for monolithic runs.
	ShardSample int

	// Ctx, when non-nil, cancels the diagnosis cooperatively:
	// cancellation surfaces as an incomplete result (Complete == false),
	// promptly even mid-search.
	Ctx context.Context

	// Steer, when non-nil, is applied to the live session after instance
	// construction — the hook the hybrid approach uses to tune decision
	// heuristics from simulation results (Section 6). Steering carries
	// into forked shards: clones copy activities and saved phases.
	Steer func(sess *cnf.DiagSession)
}

func (o BSATOptions) diagOptions() cnf.DiagOptions {
	return cnf.DiagOptions{
		Candidates:  o.Candidates,
		Groups:      o.Groups,
		GroupLabels: o.GroupLabels,
		MaxK:        o.K,
		Golden:      o.Golden,
		// Cold-path flight recording: a request that carries a recorder
		// on its context (the service's cold-build path) has it
		// installed on the session's solver at construction.
		Recorder: trace.RecorderFromContext(o.Ctx),
	}
}

// roundOptions is the enumeration request BSAT hands to the session's
// driver.
func (o BSATOptions) roundOptions() cnf.RoundOptions {
	return cnf.RoundOptions{
		MaxK:         o.K,
		Ctx:          o.Ctx,
		MaxSolutions: o.MaxSolutions,
		MaxConflicts: o.MaxConflicts,
		Timeout:      o.Timeout,
		SampleCap:    o.ShardSample,
	}
}

// BSATResult is the outcome of BasicSATDiagnose.
type BSATResult struct {
	SolutionSet
	Timings Timings
	Vars    int // SAT instance size (Θ(|cone(o)|·m), Table 1's Θ(|I|·m) bound)
	Clauses int
	Stats   sat.Stats
	// PerShard carries one entry per enumeration shard when the run was
	// sharded (Shards > 1); nil for monolithic runs.
	PerShard []cnf.ShardStats
	sess     *cnf.DiagSession
}

// Session exposes the live diagnosis session behind the result. Its
// enumeration rounds have been retired, so it can serve further queries
// (ExtractFunctions, CovGuidedRepairSession, additional rounds) without
// rebuilding the instance.
func (r *BSATResult) Session() *cnf.DiagSession { return r.sess }

// BSAT implements BasicSATDiagnose (Figure 3): build the instance F —
// one constrained copy per test of its erroneous output's fanin cone,
// candidate gates relaxed by select lines shared across copies (Figure
// 2(a)'s multiplexer in equivalent form; see package cnf), a
// cardinality ladder — then for limits i = 1..K enumerate all solutions,
// adding a blocking clause per solution. Every returned correction is
// valid (Lemma 1) and contains only essential candidates (Lemma 3),
// provided enumeration completed within the budgets (Complete reports
// this).
//
// The instance lives in a cnf.DiagSession and the enumeration runs as
// one retired round, so the returned result holds a reusable session
// instead of a solver poisoned by blocking clauses. A traced run laps
// "encode", "enumerate" and "canonicalize" on the span carried by Ctx.
func BSAT(c *circuit.Circuit, tests circuit.TestSet, opts BSATOptions) (*BSATResult, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("core: BSAT requires K >= 1, got %d", opts.K)
	}
	if len(tests) == 0 {
		return nil, fmt.Errorf("core: BSAT requires a non-empty test-set")
	}
	span := trace.FromContext(opts.Ctx)
	sess := encodeSession(c, tests, opts.diagOptions(), opts)
	res := &BSATResult{sess: sess}
	res.Timings.CNF = sess.BuildTime
	res.Vars, res.Clauses = sess.Size()
	span.Lap("encode")

	start := time.Now()
	sols, complete, perShard := sess.EnumerateSharded(opts.Shards, opts.roundOptions())
	res.Timings.All = time.Since(start)
	span.Lap("enumerate")
	// The live stage holds the run's first solution: a sharded run
	// forks only after its sample stage filled a cap of at least one.
	res.Timings.One = perShard[0].First
	res.Complete = complete
	// The live solver's total work (encoding included) plus the clones'.
	res.Stats = sess.Solver.Stats
	for _, st := range perShard[1:] {
		res.Stats = res.Stats.Add(st.Stats)
	}
	if opts.Shards > 1 {
		res.PerShard = perShard
	}
	for _, gates := range sols {
		res.Solutions = append(res.Solutions, NewCorrection(gates))
	}
	res.Canonicalize()
	span.Lap("canonicalize")
	return res, nil
}

// encodeSession builds the session the SAT drivers enumerate on: every
// test copy, then the ladder over their select lines at width K+1, so
// Size counts the instance that is solved, then the caller's steering.
func encodeSession(c *circuit.Circuit, tests circuit.TestSet, dopts cnf.DiagOptions, opts BSATOptions) *cnf.DiagSession {
	sess := cnf.NewSession(c, dopts)
	sess.AddTests(tests)
	sess.AtMost(opts.K)
	if opts.Steer != nil {
		opts.Steer(sess)
	}
	return sess
}

// GateFunction is a partial truth table reconstructed for a corrected
// gate: per test, the fanin minterm and the required output value. The
// paper (Section 4) notes BSAT supplies "a new value for each gate in
// the correction" per test, which "can be exploited to determine the
// 'correct' function of the gate".
type GateFunction struct {
	Gate  int
	Fanin []int
	// Care maps a fanin minterm to the required output value, counting
	// only the copies whose cone contains the gate.
	Care   map[int]bool
	Agrees bool // consistent across tests (no conflicting minterm)
}

// ExtractFunctions re-solves the live session with the given correction
// selected and reads back, for every corrected gate and every test copy
// whose cone contains it, the fanin values and the gate's output, which
// its select line leaves free as the copy's correction value — yielding
// the partial specification of the repaired gate functions. A copy whose
// cone does not contain the gate does not encode it and adds no care
// minterm: the gate cannot affect that copy's failing output, so a value
// read there would require nothing.
// The correction must be one of the enumerated solutions (or at least a
// valid correction). Because the enumeration rounds are retired (their
// blocking clauses retracted), no fresh instance is built: the query is
// one Solve under select-line assumptions.
func (r *BSATResult) ExtractFunctions(corr Correction) ([]GateFunction, error) {
	sess := r.sess
	assumps := make([]sat.Lit, 0, len(sess.Sels)+len(sess.TestGuards))
	for j, g := range sess.Candidates {
		if corr.Contains(g) {
			assumps = append(assumps, sess.Sels[j])
		} else {
			assumps = append(assumps, sess.Sels[j].Neg())
		}
	}
	// Every encoded copy must bind during extraction.
	assumps = append(assumps, sess.ActivationAssumps(nil)...)
	sess.Solver.SetBudget(0, 0)
	if st := sess.Solver.Solve(assumps...); st != sat.StatusSat {
		return nil, fmt.Errorf("core: correction %v is not realizable (%v)", corr, st)
	}
	var out []GateFunction
	for _, g := range corr.Gates {
		gate := &sess.Circuit.Gates[g]
		gf := GateFunction{Gate: g, Fanin: append([]int(nil), gate.Fanin...), Care: make(map[int]bool), Agrees: true}
		for i := range sess.Tests {
			y := sess.GateVars[i][g]
			if y == cnf.NoVar {
				continue
			}
			minterm := 0
			ok := true
			for bit, f := range gate.Fanin {
				fv := sess.GateVars[i][f]
				if fv == cnf.NoVar {
					ok = false
					break
				}
				if sess.Solver.Value(fv) == sat.LTrue {
					minterm |= 1 << uint(bit)
				}
			}
			if !ok {
				continue
			}
			val := sess.Solver.Value(y) == sat.LTrue
			if prev, seen := gf.Care[minterm]; seen && prev != val {
				gf.Agrees = false
			}
			gf.Care[minterm] = val
		}
		out = append(out, gf)
	}
	return out, nil
}
