package core

import (
	"fmt"
	"sort"
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

// cegarOutcome is the raw result of one CEGAR enumeration loop (the
// whole run for the monolithic driver, one shard's slice otherwise).
type cegarOutcome struct {
	solutions   [][]int // sorted gate sets, confirmation order
	refinements int
	checked     int
	complete    bool
	copies      int
	encodeTime  time.Duration // refinement encoding time on this session
	elapsed     time.Duration // pure enumeration wall time
	firstAt     time.Duration // pure enumeration time to first solution
	stats       sat.Stats
}

// cegarLoop runs the counterexample-guided enumeration inside a
// caller-managed round on one session: enumerate candidate corrections
// of size 1..K on the abstraction, refute spurious ones with the
// simulation oracle (growing the abstraction by the refuting test),
// block confirmed ones through the round. The round is not retired
// here, so its blocking survives for forked clones; extra assumptions
// (a shard's cube plus the sample round's guard) confine the slice.
// maxSols caps the confirmed solutions (0 = unlimited); encoded marks
// the tests present as copies; oracle must be dedicated to this call
// (a Validator is not safe for concurrent use).
//
// Each (limit, abstraction) pair is one EnumerateProjected call, so a
// confirmed solution is blocked on the held model trail like any BSAT
// solution. A refuted candidate stops the call unblocked — a superset
// of a spurious set can still be genuine — and the loop re-enters after
// encoding the refuting test, which needs the solver back at level 0.
func cegarLoop(sess *cnf.DiagSession, tests circuit.TestSet, encoded []bool, oracle *Validator, opts BSATOptions, round *cnf.Round, extra []sat.Lit, maxSols int) cegarOutcome {
	solver := sess.Solver
	solver.SetBudget(opts.MaxConflicts, opts.Timeout)

	// Timing discipline matches BSAT: encoding time (seed plus
	// refinements) stays out of the enumeration columns, so the Table 2
	// columns remain comparable across engines.
	buildBase := sess.BuildTime
	statsBase := solver.Statistics()
	start := time.Now()
	enumTime := func() time.Duration { return time.Since(start) - (sess.BuildTime - buildBase) }
	out := cegarOutcome{complete: true}
	base := append([]sat.Lit{round.Guard()}, extra...)
	blockExtra := []sat.Lit{round.Guard().Neg()}
enumerate:
	for k := 1; k <= opts.K; k++ {
		assumps := append(append([]sat.Lit(nil), base...), sess.AtMost(k)...)
		for {
			remaining := 0
			if maxSols > 0 {
				if remaining = maxSols - len(out.solutions); remaining <= 0 {
					out.complete = false
					break enumerate
				}
			}
			refuter := -1
			_, complete := solver.EnumerateProjected(sess.Sels, sat.EnumOptions{
				Assumptions:  assumps,
				Ctx:          opts.Ctx,
				MaxSolutions: remaining,
				BlockExtra:   blockExtra,
			}, func([]sat.Lit) bool {
				gates := sess.ModelGates()
				out.checked++
				if refuter = oracle.FirstRefuting(gates, encoded); refuter >= 0 {
					return false
				}
				// Confirmed against every test: a genuine solution, blocked
				// with its supersets for the rest of the round (Lemma 3).
				if len(out.solutions) == 0 {
					out.firstAt = enumTime()
				}
				sort.Ints(gates)
				out.solutions = append(out.solutions, gates)
				return true
			})
			switch {
			case refuter >= 0:
				// Spurious under the full test-set: grow the abstraction
				// with the counterexample and re-enumerate this limit.
				encoded[refuter] = true
				sess.AddTest(tests[refuter])
				out.refinements++
			case complete:
				continue enumerate // next limit
			case maxSols > 0 && len(out.solutions) >= maxSols:
				// The cap's last solution is blocked; the top of the loop
				// reports the capped run as incomplete.
			default:
				out.complete = false // budget or cancellation
				break enumerate
			}
		}
	}
	out.elapsed = enumTime()
	out.encodeTime = sess.BuildTime - buildBase
	out.copies = sess.NumTests()
	out.stats = solver.Statistics().Sub(statsBase)
	return out
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
// Options mirror BSATOptions, including Shards: with Shards > 1 the
// seeded abstraction is forked into disjoint candidate shards
// (cnf.DiagSession.Fork), each running its own refinement loop on a
// cloned backend concurrently with a dedicated oracle and an
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

	if opts.Shards > 1 {
		return cegarSharded(c, tests, opts, sess, encoded)
	}

	// The oracle: per-test resident baselines, one effect analysis per
	// candidate×test in O(affected cone).
	round := sess.NewRound()
	out := func() cegarOutcome {
		defer round.Retire()
		return cegarLoop(sess, tests, encoded, NewValidator(c, tests), opts, round, nil, opts.MaxSolutions)
	}()

	res := &CEGARResult{BSATResult: BSATResult{sess: sess}}
	cegarFinish(res, sess, out)
	if res.Copies != seeds+res.Refinements {
		panic("core: CEGAR copy accounting out of sync")
	}
	return res, nil
}

// cegarFinish fills a CEGARResult from a single-loop outcome: the
// monolithic run, or a sharded run its sample stage already settled.
// It reports the encoding's size, not the enumeration round's
// artifacts: the round contributes one guard variable and one guarded
// blocking clause per confirmed solution, which mono BSAT's
// Vars/Clauses (read before its round) never count. The clause figure
// is a close approximation — level-0 simplification during search may
// already have dropped a few satisfied clauses from the count.
func cegarFinish(res *CEGARResult, sess *cnf.DiagSession, out cegarOutcome) {
	for _, g := range out.solutions {
		res.Solutions = append(res.Solutions, NewCorrection(g))
	}
	res.Complete = out.complete
	res.Timings.One = out.firstAt
	res.Timings.All = out.elapsed
	res.Timings.CNF = sess.BuildTime
	res.Vars, res.Clauses = sess.Size()
	res.Vars--
	if res.Clauses -= len(res.Solutions); res.Clauses < 0 {
		res.Clauses = 0
	}
	res.Stats = out.stats
	res.Checked = out.checked
	res.Refinements = out.refinements
	res.Copies = out.copies
	res.Canonicalize()
}

// cegarSharded runs the counterexample-guided enumeration as a sample
// stage plus disjoint assumption-scoped shards: the first solutions are
// confirmed monolithically on the seeded session (warming the solver
// and measuring candidate frequencies), then the session is forked into
// balanced cubes (cnf.PlanCubes/ForkCubes) — each clone inheriting the
// sample's guarded blocking, the refined copies and the learnt clauses —
// and every shard runs its own refinement loop concurrently with a
// dedicated oracle and an independently grown copy set. Each shard
// converges to exactly the genuine solutions of its residual slice, so
// the canonical merge equals the monolithic result whenever every
// stage completes.
func cegarSharded(c *circuit.Circuit, tests circuit.TestSet, opts BSATOptions, sess *cnf.DiagSession, encoded []bool) (*CEGARResult, error) {
	res := &CEGARResult{BSATResult: BSATResult{sess: sess}}

	// Sample stage on the live session; its round is retired only after
	// the shards finish (clones must inherit the guarded blocking).
	// PerShard entries carry wall time (refinement encoding included),
	// matching the worker entries RunCubes produces, so the bench's
	// critical-path metric adds like units; the enumeration-only
	// discipline lives in Timings, as for the monolithic driver.
	sampleCap := cnf.EffectiveSampleCap(opts.ShardSample, opts.MaxSolutions)
	sampleRound := sess.NewRound()
	defer sampleRound.Retire()
	sampleOracle := NewValidator(c, tests)
	sample := cegarLoop(sess, tests, encoded, sampleOracle, opts, sampleRound, nil, sampleCap)
	sampleWall := sample.elapsed + sample.encodeTime
	res.PerShard = append(res.PerShard, cnf.ShardStats{
		Shard:     -1,
		Solutions: len(sample.solutions),
		Complete:  sample.complete,
		First:     sample.firstAt,
		Elapsed:   sampleWall,
		Stats:     sample.stats,
	})
	if cnf.SampleSettled(sample.complete, len(sample.solutions), sampleCap, opts.MaxSolutions) {
		cegarFinish(res, sess, sample)
		return res, nil
	}

	// Per-worker CEGAR state, initialized lazily from the worker's own
	// goroutine (RunCubes calls one worker's cubes sequentially): a
	// dedicated oracle, the inherited encoded-test markers, and the
	// aggregate counters. The clone inherits the parent's copies as
	// refined by the sample stage; refinements accumulate on the
	// worker's clone across its cubes — the abstraction only tightens,
	// which stays sound for later cubes.
	type workerState struct {
		oracle               *Validator
		enc                  []bool
		session              *cnf.DiagSession
		refinements, checked int
		copies               int
		encodeTime           time.Duration
	}
	states := make([]*workerState, opts.Shards)
	workersStart := time.Now()
	// The worker phase shares the caller's Timeout window with the
	// sample stage instead of opening a second one.
	workerTimeout := opts.Timeout
	if opts.Timeout > 0 {
		if workerTimeout = opts.Timeout - sampleWall; workerTimeout <= 0 {
			cegarFinish(res, sess, sample)
			res.Complete = false
			return res, nil
		}
	}
	groups, stats, drained := sess.RunCubes(opts.Shards, cnf.RoundOptions{
		MaxK:         opts.K,
		Ctx:          opts.Ctx,
		MaxSolutions: opts.MaxSolutions,
		MaxConflicts: opts.MaxConflicts,
		Timeout:      workerTimeout,
	}, sample.solutions, true, func(worker int, sh *cnf.Shard, cube cnf.Cube, budget cnf.RoundOptions) ([][]int, bool) {
		st := states[worker]
		if st == nil {
			st = &workerState{oracle: NewValidator(c, tests), enc: append([]bool(nil), encoded...), session: sh.Session}
			states[worker] = st
		}
		cubeOpts := opts
		cubeOpts.Timeout = budget.Timeout
		extra := append(append([]sat.Lit(nil), cube.Assumps...), sampleRound.Guard())
		round := sh.Session.NewRound()
		out := cegarLoop(sh.Session, tests, st.enc, st.oracle, cubeOpts, round, extra, budget.MaxSolutions)
		round.Retire()
		st.refinements += out.refinements
		st.checked += out.checked
		st.copies = out.copies
		st.encodeTime += out.encodeTime
		return out.solutions, out.complete
	})

	// drained: every planned cube was fully served despite any worker
	// faults; abandoned or stranded cubes degrade the run to incomplete.
	res.Complete = drained
	res.Checked = sample.checked
	res.Refinements = sample.refinements
	res.Stats = sample.stats
	res.Copies = sample.copies
	res.Timings.One = sample.firstAt
	var maxEncode time.Duration
	for i, wst := range stats {
		res.Complete = res.Complete && wst.Complete
		res.Stats = res.Stats.Add(wst.Stats)
		if sample.firstAt == 0 && wst.First > 0 {
			first := sample.elapsed + wst.First
			if res.Timings.One == 0 || first < res.Timings.One {
				res.Timings.One = first
			}
		}
		res.PerShard = append(res.PerShard, wst)
		st := states[i]
		if st == nil {
			continue
		}
		res.Checked += st.checked
		res.Refinements += st.refinements
		if st.copies > res.Copies {
			res.Copies = st.copies
		}
		if st.encodeTime > maxEncode {
			maxEncode = st.encodeTime
		}
		// The largest shard encoding approximates the instance size (the
		// mono-style guard/blocking adjustment is meaningless across
		// clones carrying shard-slice constraints).
		if v, cl := st.session.Size(); v > res.Vars {
			res.Vars, res.Clauses = v, cl
		}
	}
	// All is actual wall time (sample stage plus the concurrent worker
	// phase) minus the critical-path refinement encoding, matching the
	// sharded BSAT convention so the Table 2 "All" column compares like
	// with like; the per-worker critical path is in PerShard. CNF adds
	// the critical-path refinement encoding.
	res.Timings.All = sample.elapsed + time.Since(workersStart) - maxEncode
	if res.Timings.All < 0 {
		res.Timings.All = 0
	}
	res.Timings.CNF = sess.BuildTime + maxEncode

	merged, truncated := cnf.MergeTruncate(append([][][]int{sample.solutions}, groups...), opts.MaxSolutions)
	if truncated {
		res.Complete = false
	}
	for _, g := range merged {
		res.Solutions = append(res.Solutions, NewCorrection(g))
	}
	res.Canonicalize()
	return res, nil
}
