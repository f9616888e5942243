package cnf

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DiagSession is a long-lived diagnosis SAT instance: one solver that
// accumulates constrained test copies incrementally (AddTest), each over
// the fanin cone of its test's erroneous output, while the select lines
// and the cardinality ladder are shared across all copies. Everything
// that used to force a rebuild is an assumption instead:
//
//   - size limits come from the ladder (AtMost), which grows in place
//     when a bound needs more width than the session was built with,
//   - candidate restriction from RestrictAssumps (select lines of
//     excluded candidates assumed off),
//   - test-set scoping, for sessions built with GuardTests, from
//     ActivationAssumps (per-copy guard literals),
//   - and enumeration blocking clauses carry a per-round guard literal,
//     so retiring the round (Round.Retire) retracts them all and leaves
//     the solver reusable for the next query.
//
// BuildDiag remains as the monolithic constructor (NewSession + AddTests
// in one call). A DiagSession is not safe for concurrent use.
type DiagSession struct {
	// Solver is the CDCL solver behind the session; sharded enumeration
	// clones it per worker (fork).
	Solver  *sat.Solver
	Circuit *circuit.Circuit
	// Tests lists the encoded test copies in AddTest order.
	Tests circuit.TestSet
	// Candidates labels the selection units reported in corrections: one
	// entry per select line. For plain diagnosis these are the candidate
	// gate IDs; for grouped (sequential) diagnosis, the group labels.
	Candidates []int
	Sels       []sat.Lit // select literal per candidate/group
	Ladder     *Ladder

	// GateVars[i][g] is the output variable of gate g in test copy i, or
	// NoVar when the gate is outside the encoded cone of copy i. For a
	// selected candidate it is the copy's correction value.
	GateVars [][]sat.Var
	// TestGuards holds the per-copy activation literal of sessions built
	// with DiagOptions.GuardTests (nil otherwise): a copy's input/output
	// constraints only bind while its guard is assumed true.
	TestGuards []sat.Lit

	selIndex map[int]int // gate ID -> select position
	opts     DiagOptions
	golden   *sim.Simulator
	// BuildTime accumulates the encoding time across NewSession and
	// every AddTest (the Table 1/2 "CNF" column for monolithic builds).
	BuildTime time.Duration

	// Lifetime counters behind Stats(): enumeration rounds opened and
	// retired on this session, and how many of those rounds installed a
	// finite solver budget (conflict cap or deadline).
	rounds, retiredRounds, budgetedRounds int
}

// SessionStats is a point-in-time snapshot of a session's accumulated
// SAT cost, exposed so long-lived holders (the diagnosis server's
// /metrics endpoint in particular) can report per-session work without
// reaching into session or solver internals.
type SessionStats struct {
	// Vars and Clauses size the live instance (select lines, ladder,
	// every encoded copy, plus round guards and blocking clauses).
	Vars, Clauses int
	// Copies is the number of encoded test copies; Candidates the number
	// of select lines; LadderWidth the largest "at most k" the ladder
	// enforces without growing, plus one (0 when it is degenerate).
	Copies, Candidates, LadderWidth int
	// BuildTime is the total encoding time (NewSession + every AddTest).
	BuildTime time.Duration
	// Rounds counts enumeration rounds opened; RetiredRounds those whose
	// blocking clauses have been retracted; BudgetedRounds the rounds
	// that ran under a finite conflict or wall-clock budget.
	Rounds, RetiredRounds, BudgetedRounds int
	// Solver holds the solver's accumulated work counters.
	Solver sat.Stats
}

// Stats snapshots the session's size and cost counters. Like every
// other session method it must not race with concurrent session use.
func (sess *DiagSession) Stats() SessionStats {
	vars, clauses := sess.Size()
	return SessionStats{
		Vars:           vars,
		Clauses:        clauses,
		Copies:         len(sess.Tests),
		Candidates:     len(sess.Sels),
		LadderWidth:    sess.Ladder.Width(),
		BuildTime:      sess.BuildTime,
		Rounds:         sess.rounds,
		RetiredRounds:  sess.retiredRounds,
		BudgetedRounds: sess.budgetedRounds,
		Solver:         sess.Solver.Stats,
	}
}

// NewSession creates an empty diagnosis session: select lines and the
// cardinality ladder are encoded up front (they only depend on the
// candidate set and MaxK, the ladder's initial width), test copies are
// appended later with AddTest. With MaxK <= 0 the ladder starts empty
// and its first AtMost grows it.
func NewSession(c *circuit.Circuit, opts DiagOptions) *DiagSession {
	start := time.Now()
	s := sat.New()
	s.SetRecorder(opts.Recorder)

	// Normalize the selection units to groups with labels.
	groups := opts.Groups
	labels := opts.GroupLabels
	if groups == nil {
		cands := opts.Candidates
		if cands == nil {
			cands = c.InternalGates()
		} else {
			cands = append([]int(nil), cands...)
			sort.Ints(cands)
		}
		groups = make([][]int, len(cands))
		for j, g := range cands {
			groups[j] = []int{g}
		}
		labels = cands
	} else if labels == nil {
		labels = make([]int, len(groups))
		for j, grp := range groups {
			min := grp[0]
			for _, g := range grp {
				if g < min {
					min = g
				}
			}
			labels[j] = min
		}
	}
	sess := &DiagSession{
		Solver:     s,
		Circuit:    c,
		Candidates: labels,
		Sels:       make([]sat.Lit, len(groups)),
		selIndex:   make(map[int]int),
		opts:       opts,
	}
	// Select variables are allocated consecutively; gatesOf relies on it.
	for j, grp := range groups {
		sess.Sels[j] = sat.PosLit(s.NewVar())
		for _, g := range grp {
			sess.selIndex[g] = j
		}
	}
	if opts.Golden != nil {
		sess.golden = sim.New(opts.Golden)
	}
	sess.Ladder = newLadder(sess.Sels)
	if opts.MaxK > 0 {
		sess.Ladder.grow(s, opts.MaxK+1)
	}
	sess.BuildTime += time.Since(start)
	return sess
}

// AddTest appends one constrained copy for the test and returns its copy
// index. The copy covers the fanin cone of the test's erroneous output
// (every output's cone with Golden; see coneFor) and shares the
// session's select lines; only its gate variables are fresh, one per
// cone gate, and GateVars holds NoVar outside the cone. Each candidate's
// clauses are relaxed by its select line (see EncodeGate). Sessions
// with GuardTests attach the copy's constraints to a fresh guard literal
// instead of asserting them, so the copy can be scoped per round.
func (sess *DiagSession) AddTest(t circuit.Test) int {
	start := time.Now()
	s := sess.Solver
	c := sess.Circuit

	var guard sat.Lit
	constrain := func(l sat.Lit) {
		if sess.opts.GuardTests {
			s.AddClause(guard.Neg(), l)
		} else {
			s.AddClause(l)
		}
	}
	if sess.opts.GuardTests {
		guard = sat.PosLit(s.NewVar())
		sess.TestGuards = append(sess.TestGuards, guard)
	}

	inCone := coneFor(c, t, sess.golden != nil)
	gateVars := make([]sat.Var, len(c.Gates))
	for g := range gateVars {
		gateVars[g] = NoVar
	}
	var fan []sat.Lit
	for g := range c.Gates {
		if !inCone.Has(g) {
			continue
		}
		gate := &c.Gates[g]
		y := s.NewVar()
		gateVars[g] = y
		if gate.Kind == logic.Input {
			// Constrain to the test-vector value.
			pos := c.InputPos(g)
			constrain(sat.MkLit(y, !t.Vector[pos]))
			continue
		}
		fan = fan[:0]
		for _, f := range gate.Fanin {
			fan = append(fan, sat.PosLit(gateVars[f]))
		}
		relax, _ := sess.SelLit(g) // sat.LitUndef for a non-candidate
		EncodeGate(s, gate, sat.PosLit(y), fan, relax)
	}
	i := len(sess.Tests)
	sess.Tests = append(sess.Tests, t)
	sess.GateVars = append(sess.GateVars, gateVars)

	// Constrain the erroneous output to its correct value.
	constrain(sat.MkLit(gateVars[t.Output], !t.Want))

	// Optionally constrain every other output to the golden value.
	if sess.golden != nil {
		sess.golden.RunVector(t.Vector)
		for _, o := range sess.opts.Golden.Outputs {
			if o == t.Output || gateVars[o] == NoVar {
				continue
			}
			constrain(sat.MkLit(gateVars[o], !sess.golden.OutputBit(o)))
		}
	}
	sess.BuildTime += time.Since(start)
	return i
}

// AddTests appends one copy per test.
func (sess *DiagSession) AddTests(tests circuit.TestSet) {
	for _, t := range tests {
		sess.AddTest(t)
	}
}

// NumTests returns the number of encoded test copies.
func (sess *DiagSession) NumTests() int { return len(sess.Tests) }

// SelLit returns the select literal of the given candidate gate.
func (sess *DiagSession) SelLit(gate int) (sat.Lit, bool) {
	j, ok := sess.selIndex[gate]
	if !ok {
		return sat.LitUndef, false
	}
	return sess.Sels[j], true
}

// CandidateIndex returns the candidate position of a gate ID.
func (sess *DiagSession) CandidateIndex(gate int) (int, bool) {
	j, ok := sess.selIndex[gate]
	return j, ok
}

// AtMost returns the assumption slice enforcing that at most k
// corrections are selected (empty when k is at least the number of
// select lines). A k past the ladder's width grows the ladder first, so
// like AddTest it must be called between solves (decision level 0).
func (sess *DiagSession) AtMost(k int) []sat.Lit {
	l := sess.Ladder.AtMost(sess.Solver, k)
	if l == sat.LitUndef {
		return nil
	}
	return []sat.Lit{l}
}

// RestrictAssumps returns the assumptions confining corrections to the
// given candidate labels: the select line of every other candidate is
// assumed off. This replaces the per-subset instance rebuilds of the
// two-pass and scoped heuristics — the solution space over the restricted
// selects is identical to an instance built with Candidates = cands,
// because a candidate whose select line is off computes its gate
// function, exactly like a gate that is no candidate.
func (sess *DiagSession) RestrictAssumps(cands []int) []sat.Lit {
	allowed := make(map[int]bool, len(cands))
	for _, g := range cands {
		allowed[g] = true
	}
	var out []sat.Lit
	for j, label := range sess.Candidates {
		if !allowed[label] {
			out = append(out, sess.Sels[j].Neg())
		}
	}
	return out
}

// ActivationAssumps returns the assumptions activating exactly the given
// test copies (by index; nil = all copies) of a GuardTests session:
// active guards assumed true, all others assumed false so their
// constraint clauses are satisfied and the copies become don't-cares.
func (sess *DiagSession) ActivationAssumps(active []int) []sat.Lit {
	if sess.TestGuards == nil {
		return nil
	}
	out := make([]sat.Lit, len(sess.TestGuards))
	if active == nil {
		copy(out, sess.TestGuards)
		return out
	}
	on := make([]bool, len(sess.TestGuards))
	for _, i := range active {
		on[i] = true
	}
	for i, g := range sess.TestGuards {
		if on[i] {
			out[i] = g
		} else {
			out[i] = g.Neg()
		}
	}
	return out
}

// ModelGates returns the candidate labels whose select lines are true in
// the solver's current model (valid after a StatusSat Solve).
func (sess *DiagSession) ModelGates() []int {
	var gates []int
	for j, l := range sess.Sels {
		if sess.Solver.ValueLit(l) == sat.LTrue {
			gates = append(gates, sess.Candidates[j])
		}
	}
	return gates
}

// gatesOf maps projected select literals back to candidate labels. A
// session without select lines has only the empty projection.
func (sess *DiagSession) gatesOf(trueLits []sat.Lit) []int {
	if len(trueLits) == 0 {
		return nil
	}
	base := sess.Sels[0].Var()
	gates := make([]int, len(trueLits))
	for i, l := range trueLits {
		gates[i] = sess.Candidates[int(l.Var()-base)]
	}
	return gates
}

// Size reports instance dimensions for the Table 1/Table 2 "CNF" columns.
func (sess *DiagSession) Size() (vars, clauses int) {
	return sess.Solver.NumVars(), sess.Solver.NumClauses()
}

// Round scopes one enumeration episode on a live session. Blocking
// clauses added through the round carry the negation of its guard
// literal; Retire asserts the guard false, retracting them all so the
// session can serve the next round (or direct Solve queries) with a
// clean solution space.
type Round struct {
	sess    *DiagSession
	guard   sat.Lit
	retired bool
}

// NewRound opens an enumeration round.
func (sess *DiagSession) NewRound() *Round {
	sess.rounds++
	return &Round{sess: sess, guard: sat.PosLit(sess.Solver.NewVar())}
}

// Guard returns the round's activation literal; pass it as an assumption
// to every Solve of the round.
func (r *Round) Guard() sat.Lit { return r.guard }

// Retire ends the round, retracting its blocking clauses. Idempotent.
func (r *Round) Retire() {
	if r.retired {
		return
	}
	r.retired = true
	r.sess.retiredRounds++
	r.sess.Solver.AddClause(r.guard.Neg())
}

// RoundOptions configures one EnumerateRound episode.
type RoundOptions struct {
	// MaxK runs the Figure 3 limit loop for k = 1..MaxK (minimum 1).
	MaxK int
	// Ctx, when non-nil, cancels the round cooperatively: cancellation
	// surfaces as an incomplete round, promptly even mid-search.
	Ctx context.Context
	// ExtraAssumps are appended to every Solve of the round. Sharded
	// enumeration passes the shard's cube and the sample round's guard
	// here — the assumption-scoped slice restriction.
	ExtraAssumps []sat.Lit
	// SampleCap bounds the sequential sample stage of a sharded
	// EnumerateSharded run (0 = the default of 64 solutions). Ignored by
	// EnumerateRound.
	SampleCap int
	// Restrict confines corrections to these candidate labels via
	// assumptions (nil = all session candidates).
	Restrict []int
	// ActiveTests scopes a GuardTests session to these copy indices
	// (nil = all copies). Ignored for unguarded sessions.
	ActiveTests []int
	// MaxSolutions caps total enumerated corrections (0 = unlimited).
	MaxSolutions int
	// MaxConflicts is the per-Solve conflict budget (0 = unlimited).
	MaxConflicts int64
	// Timeout bounds the whole round (0 = unlimited).
	Timeout time.Duration
}

// EnumerateRound runs the paper's Figure 3 enumeration as one guarded
// round on the live session: for limits k = 1..MaxK it enumerates all
// solutions projected onto the select lines, blocking each solution
// (and its supersets) for the rest of the round. fn receives the limit
// and the candidate labels of each solution and may stop the round by
// returning false. The round's budgets are installed fresh via
// Solver.SetBudget, and its blocking clauses are retracted before
// returning, so consecutive rounds are independent.
//
// complete is true iff every limit's solution space was exhausted;
// budget and cancellation stops are incomplete rounds. A limit past the
// ladder's width grows the ladder.
func (sess *DiagSession) EnumerateRound(opts RoundOptions, fn func(k int, gates []int) bool) (n int, complete bool) {
	r := sess.NewRound()
	defer r.Retire()
	return sess.enumerateInRound(r, opts, fn)
}

// enumerateInRound is EnumerateRound running inside a caller-managed
// round: the round is neither created nor retired here, so its guarded
// blocking clauses survive the call. EnumerateSharded runs every stage
// with it and relies on this for the sample stage — clones
// forked afterwards inherit the blocking and enumerate exactly the
// residual space while the guard is assumed.
func (sess *DiagSession) enumerateInRound(r *Round, opts RoundOptions, fn func(k int, gates []int) bool) (n int, complete bool) {
	maxK := opts.MaxK
	if maxK < 1 {
		maxK = 1
	}
	sess.Solver.SetBudget(opts.MaxConflicts, opts.Timeout)
	if opts.MaxConflicts > 0 || opts.Timeout > 0 {
		sess.budgetedRounds++
	}

	// A traced round gets its own child span with per-k phases and the
	// solver's Stats delta captured at the round boundary. Untraced
	// rounds (span == nil) skip even the Stats snapshot.
	span := trace.FromContext(opts.Ctx).Child("round")
	if span != nil {
		before := sess.Solver.Stats
		defer func() {
			spanStats(span, sess.Solver.Stats.Sub(before))
			span.Counter("solutions", int64(n))
			span.End()
		}()
	}

	base := []sat.Lit{r.Guard()}
	base = append(base, opts.ExtraAssumps...)
	if opts.Restrict != nil {
		base = append(base, sess.RestrictAssumps(opts.Restrict)...)
	}
	base = append(base, sess.ActivationAssumps(opts.ActiveTests)...)

	total := 0
	for k := 1; k <= maxK; k++ {
		remaining := 0
		if opts.MaxSolutions > 0 {
			remaining = opts.MaxSolutions - total
			if remaining <= 0 {
				return total, false
			}
		}
		kStart := time.Now()
		assumps := append(append([]sat.Lit(nil), base...), sess.AtMost(k)...)
		cnt, compl := sess.Solver.EnumerateProjected(sess.Sels, sat.EnumOptions{
			Assumptions:  assumps,
			Ctx:          opts.Ctx,
			MaxSolutions: remaining,
			BlockExtra:   []sat.Lit{r.Guard().Neg()},
		}, func(trueLits []sat.Lit) bool {
			return fn == nil || fn(k, sess.gatesOf(trueLits))
		})
		total += cnt
		span.PhaseSince(fmt.Sprintf("k=%d", k), kStart)
		if !compl {
			return total, false
		}
	}
	return total, true
}

// spanStats publishes a solver Stats delta as counters on a span — the
// per-round work attribution the request trace reports. Nil-safe.
func spanStats(span *trace.Span, d sat.Stats) {
	if span == nil {
		return
	}
	span.Counter("conflicts", d.Conflicts)
	span.Counter("decisions", d.Decisions)
	span.Counter("propagations", d.Propagations)
	span.Counter("restarts", d.Restarts)
	span.Counter("learnt", d.Learnt)
}
