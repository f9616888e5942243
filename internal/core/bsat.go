package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/trace"
)

// BSATOptions configures BasicSATDiagnose and its advanced variants.
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

// roundOptions is the enumeration request BSAT and CEGARDiagnose hand
// to the session's driver.
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
// instead of a solver poisoned by blocking clauses.
func BSAT(c *circuit.Circuit, tests circuit.TestSet, opts BSATOptions) (*BSATResult, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("core: BSAT requires K >= 1, got %d", opts.K)
	}
	if len(tests) == 0 {
		return nil, fmt.Errorf("core: BSAT requires a non-empty test-set")
	}
	sess := cnf.NewSession(c, opts.diagOptions())
	sess.AddTests(tests)
	if opts.Steer != nil {
		opts.Steer(sess)
	}
	res := &BSATResult{sess: sess}
	res.Timings.CNF = sess.BuildTime
	res.Vars, res.Clauses = sess.Size()

	start := time.Now()
	sols, complete, perShard, err := sess.EnumerateSharded(opts.Shards, opts.roundOptions())
	if err != nil {
		return nil, err
	}
	res.Timings.All = time.Since(start)
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
	return res, nil
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

// ffrCandidates computes the two candidate tiers of the dominator-style
// two-pass heuristic: the fanout-free-region roots, and (given the
// regions named by pass-1 solutions) the fine-grained members.
func ffrCandidates(c *circuit.Circuit) (roots []int, rootOf []int) {
	rootOf = c.FFRRoots()
	rootSet := make(map[int]bool)
	for g, r := range rootOf {
		if c.Gates[g].Kind != logic.Input {
			rootSet[r] = true
		}
	}
	for r := range rootSet {
		if c.Gates[r].Kind != logic.Input {
			roots = append(roots, r)
		}
	}
	sort.Ints(roots)
	return roots, rootOf
}

// FFRTwoPass is the dominator-style two-pass heuristic of the advanced
// SAT-based approach (Section 2.3): pass 1 selects only
// fanout-free-region roots (every path from a region gate to an output
// passes through its root, so a root correction can emulate any region
// correction); pass 2 refines within the regions named by pass-1
// solutions. The result is sound (every solution is a valid correction)
// and non-empty whenever pass 1 finds solutions, but unlike the paper's
// exact claim for its heuristics it may omit fine-grained solutions
// whose region roots were redundant at the coarse level; see DESIGN.md.
//
// Both passes run on one shared DiagSession: the instance (with a
// select line at every internal gate) is encoded once, and each pass
// confines its candidate tier by select-line assumptions instead of
// rebuilding — the projected solution spaces are identical to the
// per-pass instances of the monolithic formulation. Accordingly both
// results report the shared instance's Vars/Clauses, the one-time
// build cost lands in pass 1's Timings.CNF (pass 2's is zero — that is
// the saving), and each Stats covers only its own pass's solver work.
//
// Trade-off of the shared instance: pass 1 solves over the full
// encoding (selects at every internal gate, assumed off outside the
// root tier) instead of the old roots-only instance, so its per-Solve
// cost no longer shrinks with the root count — the price paid for
// eliminating the second build and sharing learnt clauses between the
// passes. Workloads that run pass 1 alone on huge circuits may prefer
// a plain BSAT call with Candidates set to the FFR roots.
func FFRTwoPass(c *circuit.Circuit, tests circuit.TestSet, opts BSATOptions) (*BSATResult, *BSATResult, error) {
	if opts.K < 1 {
		return nil, nil, fmt.Errorf("core: FFRTwoPass requires K >= 1, got %d", opts.K)
	}
	if len(tests) == 0 {
		return nil, nil, fmt.Errorf("core: FFRTwoPass requires a non-empty test-set")
	}
	rootCands, rootOf := ffrCandidates(c)

	sessOpts := opts.diagOptions()
	sessOpts.Candidates = nil // every internal gate; passes restrict by assumptions
	sess := cnf.NewSession(c, sessOpts)
	sess.AddTests(tests)
	if opts.Steer != nil {
		opts.Steer(sess)
	}

	// Both passes report the shared instance's size as encoded, free of
	// any round artifacts (guard variables, blocking clauses).
	vars, clauses := sess.Size()
	runPass := func(cands []int) *BSATResult {
		res := &BSATResult{sess: sess}
		// Stats is this pass's own solver work.
		res.Vars, res.Clauses = vars, clauses
		before := sess.Solver.Stats
		start := time.Now()
		// The ladder-width error cannot fire: the session was built with
		// MaxK = opts.K, the same limit every pass enumerates under.
		_, complete, _ := sess.EnumerateRound(cnf.RoundOptions{
			MaxK:         opts.K,
			Ctx:          opts.Ctx,
			Restrict:     cands,
			MaxSolutions: opts.MaxSolutions,
			MaxConflicts: opts.MaxConflicts,
			Timeout:      opts.Timeout,
		}, func(k int, gates []int) bool {
			if len(res.Solutions) == 0 {
				res.Timings.One = time.Since(start)
			}
			res.Solutions = append(res.Solutions, NewCorrection(gates))
			return true
		})
		res.Complete = complete
		res.Timings.All = time.Since(start)
		res.Stats = sess.Solver.Stats.Sub(before)
		res.Canonicalize()
		return res
	}

	pass1 := runPass(rootCands)
	pass1.Timings.CNF = sess.BuildTime

	// Pass 2 candidates: all members of every region named in pass 1.
	named := make(map[int]bool)
	for _, sol := range pass1.Solutions {
		for _, r := range sol.Gates {
			named[r] = true
		}
	}
	var fine []int
	for g, r := range rootOf {
		if named[r] && c.Gates[g].Kind != logic.Input {
			fine = append(fine, g)
		}
	}
	sort.Ints(fine)
	if len(fine) == 0 {
		return pass1, &BSATResult{SolutionSet: SolutionSet{Complete: pass1.Complete}, sess: sess}, nil
	}
	pass2 := runPass(fine)
	return pass1, pass2, nil
}

// PartitionedBSAT splits the test-set into partitions of the given size
// and diagnoses each independently — the test-set-splitting heuristic of
// Section 2.3. All partitions share one DiagSession built with per-test
// guard literals: every copy is encoded once, and each partition round
// activates only its own copies by assumptions, so no per-partition
// instance is ever rebuilt. Every correction proposed by any partition
// is then checked against the full test-set by exact effect analysis
// (one incremental Validator), and kept only if it is valid and
// essential there.
//
// The result is sound: every returned correction is a full-test-set BSAT
// solution. It may under-approximate the full solution list, because a
// correction essential for the whole test-set can be blocked inside a
// partition where a strict subset already suffices; the ablation
// benchmarks quantify this recall/size trade-off.
//
// Trade-off of the shared instance: a partition's models still assign
// the (unconstrained) variables of the deactivated copies, so per-model
// work scales with the total encoded copies rather than partitionSize —
// the price paid for zero rebuild cost and learnt clauses shared across
// partitions. Workloads dominated by very many tiny partitions over
// huge circuits may prefer per-partition BSAT calls.
func PartitionedBSAT(c *circuit.Circuit, tests circuit.TestSet, partitionSize int, opts BSATOptions) (*SolutionSet, error) {
	if partitionSize < 1 {
		return nil, fmt.Errorf("core: partition size must be >= 1")
	}
	if opts.K < 1 {
		return nil, fmt.Errorf("core: PartitionedBSAT requires K >= 1, got %d", opts.K)
	}
	if len(tests) == 0 {
		return nil, fmt.Errorf("core: PartitionedBSAT requires a non-empty test-set")
	}
	sessOpts := opts.diagOptions()
	sessOpts.GuardTests = true
	sess := cnf.NewSession(c, sessOpts)
	sess.AddTests(tests)
	if opts.Steer != nil {
		opts.Steer(sess)
	}

	byKey := make(map[string]Correction)
	complete := true
	for lo := 0; lo < len(tests); lo += partitionSize {
		hi := lo + partitionSize
		if hi > len(tests) {
			hi = len(tests)
		}
		active := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			active = append(active, i)
		}
		_, compl, _ := sess.EnumerateRound(cnf.RoundOptions{
			MaxK:         opts.K,
			Ctx:          opts.Ctx,
			ActiveTests:  active,
			MaxSolutions: opts.MaxSolutions,
			MaxConflicts: opts.MaxConflicts,
			Timeout:      opts.Timeout,
		}, func(k int, gates []int) bool {
			sol := NewCorrection(gates)
			byKey[sol.Key()] = sol
			return true
		})
		complete = complete && compl
	}
	candidates := &SolutionSet{}
	for _, sol := range byKey {
		candidates.Solutions = append(candidates.Solutions, sol)
	}
	candidates.Canonicalize()
	out := &SolutionSet{Complete: complete}
	if len(candidates.Solutions) > 0 {
		v := NewValidator(c, tests)
		for _, sol := range candidates.Solutions {
			if v.Essential(sol.Gates) {
				out.Solutions = append(out.Solutions, sol)
			}
		}
	}
	return out, nil
}
