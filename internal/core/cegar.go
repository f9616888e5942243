package core

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/sat"
)

// CEGARResult is the outcome of CEGARDiagnose. The embedded BSATResult
// carries the solution set (provably identical to monolithic BSAT), the
// timings and the final — lazily grown — instance size; the extra
// fields quantify the abstraction. Queries against the live session
// see only the encoded copies: ExtractFunctions reconstructs Care
// tables from Copies of the m tests, a subset of what the monolithic
// result would yield.
type CEGARResult struct {
	BSATResult
	// Copies is the number of test copies actually encoded; the
	// monolithic instance always encodes len(tests). For sharded runs it
	// is the largest per-shard abstraction (each shard refines its clone
	// independently).
	Copies int
	// Refinements counts counterexample tests added after seeding
	// (summed across shards for sharded runs).
	Refinements int
	// Checked counts candidate corrections validated against the full
	// test-set by the simulation oracle.
	Checked int
}

// cegarWorker is the CEGAR state one enumeration worker owns across
// its slices: the session it refines (the live one or a forked clone),
// a dedicated simulation oracle (a Validator is not safe for concurrent
// use), the encoded-test markers and the counters. Refinements
// accumulate across a worker's cubes — the abstraction only tightens,
// which stays sound for later cubes.
type cegarWorker struct {
	sess        *cnf.DiagSession
	oracle      *Validator
	encoded     []bool // tests present as copies
	refinements int
	checked     int
	encodeTime  time.Duration // refinement encoding time on this session
	// firstAt is the pure enumeration time to the first solution of the
	// worker's latest slice (the live stage runs exactly one).
	firstAt time.Duration
}

// enumerate is the CEGAR slice of EnumerateSlices: inside the round,
// under budget.ExtraAssumps, it enumerates candidate corrections of
// size 1..MaxK on the abstraction, refutes spurious ones with the
// simulation oracle (growing the abstraction by the refuting test) and
// reports confirmed ones to found, blocked through the round. It
// returns whether the slice was exhausted within the budget.
//
// Each (limit, abstraction) pair is one EnumerateProjected call, so a
// confirmed solution is blocked on the held model trail like any BSAT
// solution. A refuted candidate stops the call unblocked — a superset
// of a spurious set can still be genuine — and the loop re-enters after
// encoding the refuting test, which needs the solver back at level 0.
func (w *cegarWorker) enumerate(tests circuit.TestSet, round *cnf.Round, budget cnf.RoundOptions, found func([]int)) bool {
	sess := w.sess
	solver := sess.Solver
	solver.SetBudget(budget.MaxConflicts, budget.Timeout)

	// Timing discipline matches BSAT: encoding time (seed plus
	// refinements) stays out of the enumeration columns, so the Table 2
	// columns remain comparable across engines.
	buildBase := sess.BuildTime
	start := time.Now()
	defer func() { w.encodeTime += sess.BuildTime - buildBase }()
	base := append([]sat.Lit{round.Guard()}, budget.ExtraAssumps...)
	blockExtra := []sat.Lit{round.Guard().Neg()}
	confirmed := 0
enumerate:
	for k := 1; k <= budget.MaxK; k++ {
		assumps := append(append([]sat.Lit(nil), base...), sess.AtMost(k)...)
		for {
			remaining := 0
			if budget.MaxSolutions > 0 {
				if remaining = budget.MaxSolutions - confirmed; remaining <= 0 {
					return false
				}
			}
			refuter := -1
			_, complete := solver.EnumerateProjected(sess.Sels, sat.EnumOptions{
				Assumptions:  assumps,
				Ctx:          budget.Ctx,
				MaxSolutions: remaining,
				BlockExtra:   blockExtra,
			}, func([]sat.Lit) bool {
				gates := sess.ModelGates()
				w.checked++
				if refuter = w.oracle.FirstRefuting(gates, w.encoded); refuter >= 0 {
					return false
				}
				// Confirmed against every test: a genuine solution, blocked
				// with its supersets for the rest of the round (Lemma 3).
				if confirmed == 0 {
					w.firstAt = time.Since(start) - (sess.BuildTime - buildBase)
				}
				confirmed++
				found(gates)
				return true
			})
			switch {
			case refuter >= 0:
				// Spurious under the full test-set: grow the abstraction
				// with the counterexample and re-enumerate this limit.
				w.encoded[refuter] = true
				sess.AddTest(tests[refuter])
				w.refinements++
			case complete:
				continue enumerate // next limit
			case budget.MaxSolutions > 0 && confirmed >= budget.MaxSolutions:
				// The cap's last solution is blocked; the top of the loop
				// reports the capped run as incomplete.
			default:
				return false // budget or cancellation
			}
		}
	}
	return true
}

// CEGARDiagnose is the counterexample-guided form of BasicSATDiagnose:
// instead of encoding one constrained cone copy per test up front (the
// Θ(|cone(o)|·m) instance of Table 1), it seeds a cnf.DiagSession with
// one test per distinct erroneous output and enumerates candidate
// corrections on that abstraction. Each candidate is validated against
// the full test-set by the incremental simulation oracle (Validator,
// O(affected cone) per test rather than a SAT copy); a refuted candidate
// contributes its refuting test as a new copy (AddTest) and enumeration
// continues, while a confirmed candidate is recorded and blocked. The
// loop is the paper's thesis made operational: the simulation engine and
// the SAT engine answer the same validity question, so the cheap one can
// serve as the oracle that lazily grows the expensive one.
//
// The returned solution set is identical to monolithic BSAT with the
// same options (oracle-checked in the equivalence property suite):
// the abstraction over-approximates — every genuine correction is a
// model of every abstraction — and a candidate is only recorded once no
// test refutes it, so enumeration per limit k terminates exactly when
// the genuine size-≤k solutions are exhausted.
//
// Options mirror BSATOptions, including Shards: the refinement loop is
// the slice function of cnf.DiagSession.EnumerateSlices, so with
// Shards > 1 a sample stage runs on the seeded session and the
// abstraction is then forked into disjoint candidate cubes, each worker
// refining its cloned solver with a dedicated oracle and an
// independently grown copy set; the canonical merge restores exactly
// the monolithic solution set. Groups and Golden are rejected: their
// validity semantics (shared select lines across frame instances;
// all-output constraints) are not what the simulation oracle checks.
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

	sess := cnf.NewSession(c, opts.diagOptions())

	// Seed the abstraction with one test per distinct erroneous output:
	// the cheapest subset that still constrains every failing observable.
	encoded := make([]bool, len(tests))
	seenOut := make(map[int]bool)
	for i, t := range tests {
		if !seenOut[t.Output] {
			seenOut[t.Output] = true
			encoded[i] = true
			sess.AddTest(t)
		}
	}
	seeds := sess.NumTests()
	if opts.Steer != nil {
		opts.Steer(sess)
	}

	// The live worker's oracle (per-test resident baselines, one effect
	// analysis per candidate×test in O(affected cone)) is built before
	// the clock starts; forked workers build theirs lazily, from their
	// own goroutine, and inherit the live stage's refined copy set.
	live := &cegarWorker{sess: sess, oracle: NewValidator(c, tests), encoded: encoded}
	workers := make([]*cegarWorker, opts.Shards)
	start := time.Now()
	sols, complete, perShard, err := sess.EnumerateSlices(opts.Shards, opts.roundOptions(),
		func(worker int, s *cnf.DiagSession, round *cnf.Round, budget cnf.RoundOptions, found func([]int)) (bool, error) {
			w := live
			if worker >= 0 {
				if w = workers[worker]; w == nil {
					w = &cegarWorker{sess: s, oracle: NewValidator(c, tests), encoded: append([]bool(nil), encoded...)}
					workers[worker] = w
				}
			}
			return w.enumerate(tests, round, budget, found), nil
		})
	if err != nil {
		return nil, err
	}

	res := &CEGARResult{BSATResult: BSATResult{sess: sess}}
	for _, g := range sols {
		res.Solutions = append(res.Solutions, NewCorrection(g))
	}
	res.Complete = complete
	res.Checked, res.Refinements, res.Copies = live.checked, live.refinements, sess.NumTests()
	var maxEncode time.Duration
	for _, w := range workers {
		if w == nil {
			continue
		}
		res.Checked += w.checked
		res.Refinements += w.refinements
		res.Copies = max(res.Copies, w.sess.NumTests())
		maxEncode = max(maxEncode, w.encodeTime)
		// The largest worker encoding approximates the instance size (the
		// live-size adjustment below is meaningless across clones carrying
		// cube-slice constraints).
		if v, cl := w.sess.Size(); v > res.Vars {
			res.Vars, res.Clauses = v, cl
		}
	}
	for _, st := range perShard {
		res.Stats = res.Stats.Add(st.Stats)
	}
	// All is wall time minus the refinement encoding on the critical
	// path (the live stage's plus the slowest worker's), so the Table 2
	// "All" column compares like with like across engines and shard
	// counts; CNF adds the critical-path refinement encoding.
	res.Timings.One = live.firstAt
	res.Timings.All = max(time.Since(start)-live.encodeTime-maxEncode, 0)
	res.Timings.CNF = sess.BuildTime + maxEncode
	if opts.Shards > 1 {
		res.PerShard = perShard
	}
	if len(perShard) == 1 {
		// Nothing forked: report the encoding's size, not the round's
		// artifacts — one guard variable and one guarded blocking clause
		// per confirmed solution, which mono BSAT's Vars/Clauses (read
		// before its round) never count. The clause figure is a close
		// approximation: level-0 simplification during search may already
		// have dropped a few satisfied clauses from the count.
		res.Vars, res.Clauses = sess.Size()
		res.Vars--
		res.Clauses = max(res.Clauses-len(res.Solutions), 0)
		if res.Copies != seeds+res.Refinements {
			panic("core: CEGAR copy accounting out of sync")
		}
	}
	res.Canonicalize()
	return res, nil
}
