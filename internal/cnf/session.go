package cnf

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
// A candidate gets its select line, and the ladder its leaf, only when
// a copy whose cone contains it is encoded (see NewSession).
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
	// Candidates labels the live selection units reported in
	// corrections: one entry per select line, in the order the lines
	// were allocated. For plain diagnosis these are candidate gate IDs;
	// for grouped (sequential) diagnosis, the group labels.
	Candidates []int
	// Sels holds the select literal of each live candidate. Its
	// variables ascend, since lines are only ever appended.
	Sels   []sat.Lit
	Ladder *Ladder

	// GateVars[i][g] is the output variable of gate g in test copy i, or
	// NoVar when the gate is outside the encoded cone of copy i. For a
	// selected candidate it is the copy's correction value.
	GateVars [][]sat.Var
	// TestGuards holds the per-copy activation literal of sessions built
	// with DiagOptions.GuardTests (nil otherwise): a copy's input/output
	// constraints only bind while its guard is assumed true.
	TestGuards []sat.Lit

	// The selection units, live or not: unitOf maps a gate to its unit
	// (-1 for a gate that is no candidate) and unitLabel names each
	// unit; both are fixed at NewSession and shared by forks. unitPos
	// is a unit's position in Sels, or -1 before its line exists.
	unitOf    []int32
	unitLabel []int
	unitPos   []int32

	opts   DiagOptions
	golden *sim.Simulator
	// BuildTime accumulates the encoding time across NewSession, every
	// AddTest and every ladder growth (the Table 1/2 "CNF" column for
	// monolithic builds).
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
	// of live select lines (candidates in some encoded cone);
	// LadderWidth the largest "at most k" the ladder enforces without
	// growing, plus one (0 when it is degenerate).
	Copies, Candidates, LadderWidth int
	// BuildTime is the total encoding time (NewSession, every AddTest
	// and every ladder growth).
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

// NewSession creates an empty diagnosis session; test copies are
// appended later with AddTest. It fixes the selection units (the
// candidate gates, or the groups of DiagOptions.Groups) but allocates
// no select line: a unit's line is allocated, and added to the ladder
// as a leaf, the first time AddTest encodes a copy whose cone contains
// one of its gates. MaxK is the ladder's initial width, reached by the
// first AtMost; with MaxK <= 0 that AtMost sets it.
//
// Leaving out the other units keeps every answer. A select line appears
// only in the clauses of the copies that contain its gate and in the
// ladder. If no active copy contains the gate, setting the line false
// in any model leaves a model, so a solution that includes the gate is
// a strict superset of one that does not. The limit loop enumerates by
// size and blocks every superset of a solution, so such a solution is
// never reported: its subset was found at a smaller limit. Without the
// k=0 pass that settles the empty correction first (see
// EnumerateRound) the one exception would be the k=1 pass when ∅ is a
// solution, where a singleton could come before ∅.
func NewSession(c *circuit.Circuit, opts DiagOptions) *DiagSession {
	start := time.Now()
	s := sat.New()
	s.SetRecorder(opts.Recorder)
	sess := &DiagSession{
		Solver:  s,
		Circuit: c,
		Ladder:  newLadder(),
		unitOf:  make([]int32, len(c.Gates)),
		opts:    opts,
	}
	for g := range sess.unitOf {
		sess.unitOf[g] = -1
	}
	if opts.Groups != nil {
		sess.unitLabel = opts.GroupLabels
		if sess.unitLabel == nil {
			sess.unitLabel = make([]int, len(opts.Groups))
			for j, grp := range opts.Groups {
				sess.unitLabel[j] = slices.Min(grp)
			}
		}
		for j, grp := range opts.Groups {
			for _, g := range grp {
				sess.unitOf[g] = int32(j)
			}
		}
	} else {
		if opts.Candidates != nil {
			sess.unitLabel = slices.Sorted(slices.Values(opts.Candidates))
		} else {
			sess.unitLabel = c.InternalGates()
		}
		for j, g := range sess.unitLabel {
			sess.unitOf[g] = int32(j)
		}
	}
	sess.unitPos = make([]int32, len(sess.unitLabel))
	for j := range sess.unitPos {
		sess.unitPos[j] = -1
	}
	if opts.Golden != nil {
		sess.golden = sim.New(opts.Golden)
	}
	if opts.MaxK > 0 {
		sess.Ladder.grow(s, opts.MaxK+1)
	}
	sess.BuildTime += time.Since(start)
	return sess
}

// AddTest appends one constrained copy for the test and returns its copy
// index. The copy covers the fanin cone of the test's erroneous output
// (every output's cone with Golden; see coneFor) and shares the
// session's select lines; its gate variables are fresh, one per cone
// gate, and GateVars holds NoVar outside the cone. Each candidate's
// clauses are relaxed by its select line (see EncodeGate), which is
// allocated here when no earlier copy contained the candidate. Sessions
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
		EncodeGate(s, gate, sat.PosLit(y), fan, sess.selectLine(g))
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

// selectLine returns the select literal of gate g's unit, allocating
// the line and its ladder leaf on first use, or sat.LitUndef for a gate
// that is no candidate.
func (sess *DiagSession) selectLine(g int) sat.Lit {
	u := sess.unitOf[g]
	if u < 0 {
		return sat.LitUndef
	}
	if p := sess.unitPos[u]; p >= 0 {
		return sess.Sels[p]
	}
	l := sat.PosLit(sess.Solver.NewVar())
	sess.unitPos[u] = int32(len(sess.Sels))
	sess.Sels = append(sess.Sels, l)
	sess.Candidates = append(sess.Candidates, sess.unitLabel[u])
	sess.Ladder.Add(l)
	return l
}

// AddTests appends one copy per test.
func (sess *DiagSession) AddTests(tests circuit.TestSet) {
	for _, t := range tests {
		sess.AddTest(t)
	}
}

// NumTests returns the number of encoded test copies.
func (sess *DiagSession) NumTests() int { return len(sess.Tests) }

// SelLit returns the select literal of the given candidate gate; false
// when the gate is no candidate or no encoded cone contains it yet.
func (sess *DiagSession) SelLit(gate int) (sat.Lit, bool) {
	if gate < 0 || gate >= len(sess.unitOf) || sess.unitOf[gate] < 0 {
		return sat.LitUndef, false
	}
	p := sess.unitPos[sess.unitOf[gate]]
	if p < 0 {
		return sat.LitUndef, false
	}
	return sess.Sels[p], true
}

// Candidate returns the label of the candidate whose select literal is
// l; false for any other literal, the line's negation included.
func (sess *DiagSession) Candidate(l sat.Lit) (int, bool) {
	p, ok := slices.BinarySearchFunc(sess.Sels, l.Var(), func(sel sat.Lit, v sat.Var) int {
		return cmp.Compare(sel.Var(), v)
	})
	if !ok || sess.Sels[p] != l {
		return 0, false
	}
	return sess.Candidates[p], true
}

// CandidateCount returns the number of selection units the session was
// built with, live or not: every internal gate unless DiagOptions
// restricts the candidates or groups them.
func (sess *DiagSession) CandidateCount() int { return len(sess.unitLabel) }

// AtMost returns the assumption slice enforcing that at most k
// corrections are selected (empty when k is at least the number of
// select lines). It first encodes the ladder leaves of the select lines
// allocated since the last call, and grows the ladder when k is past its
// width, so like AddTest it must be called between solves (decision
// level 0).
func (sess *DiagSession) AtMost(k int) []sat.Lit {
	start := time.Now()
	l := sess.Ladder.AtMost(sess.Solver, k)
	sess.BuildTime += time.Since(start)
	if l == sat.LitUndef {
		return nil
	}
	return []sat.Lit{l}
}

// RestrictAssumps returns the assumptions confining corrections to the
// given candidate labels: the select line of every other candidate is
// assumed off. A warm service session answers a request's candidate
// list this way instead of rebuilding — the solution space over the
// restricted selects is identical to an instance built with Candidates = cands,
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

// ModelGates returns, in ascending order, the candidate labels whose
// select lines are true in the solver's current model (valid after a
// StatusSat Solve).
func (sess *DiagSession) ModelGates() []int {
	var gates []int
	for j, l := range sess.Sels {
		if sess.Solver.ValueLit(l) == sat.LTrue {
			gates = append(gates, sess.Candidates[j])
		}
	}
	slices.Sort(gates)
	return gates
}

// gatesOf maps projected select literals back to candidate labels, in
// ascending order. A session without select lines has only the empty
// projection.
func (sess *DiagSession) gatesOf(trueLits []sat.Lit) []int {
	if len(trueLits) == 0 {
		return nil
	}
	gates := make([]int, len(trueLits))
	for i, l := range trueLits {
		gates[i], _ = sess.Candidate(l)
	}
	slices.Sort(gates)
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
	// MaxK runs the Figure 3 limit loop for k = 0..MaxK (MaxK minimum
	// 1); the k=0 pass settles the empty correction.
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
// round on the live session: for limits k = 0..MaxK it enumerates all
// solutions projected onto the select lines, blocking each solution
// (and its supersets) for the rest of the round. The k=0 pass finds the
// empty correction when the active tests already pass, and blocking it
// ends the round, so no singleton is reported beside ∅ whatever order
// the search takes. fn receives the limit and the candidate labels of
// each solution, in ascending order, and may stop the round by
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
	for k := 0; k <= maxK; k++ {
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
