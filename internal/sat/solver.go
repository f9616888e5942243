package sat

import (
	"context"
	"math"
	"time"

	"repro/internal/trace"
)

// Solver is an incremental CDCL SAT solver. Construct with New; add
// variables with NewVar and clauses with AddClause; query with Solve,
// possibly under assumptions; read the model with Value. Clauses may be
// added between Solve calls (the incremental usage the diagnosis
// enumeration relies on). A Solver is not safe for concurrent use.
//
// Clauses live in a flat arena (see arena.go): clauses and learnts are
// CRef offsets, watch lists hold {CRef, blocker} pairs with binary
// clauses resolved inline, and reason is a []CRef — so the hot loops
// never chase heap pointers and Clone is a handful of bulk copies.
type Solver struct {
	ca      clauseArena
	clauses []CRef
	learnts []CRef
	wslab   watchSlab

	assigns  []LBool
	level    []int32
	reason   []CRef
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	order    varOrder
	polarity []bool

	clauseInc float64

	seen      []byte
	toClear   []Var
	learntBuf []Lit
	redStack  []redFrame // litRedundant's explicit recursion stack

	// computeLBD's level-stamp buffer: stamp[level] == lbdGen marks a
	// level as already counted for the current learnt clause, replacing
	// the per-call map the pre-arena solver allocated.
	lbdStamp []int64
	lbdGen   int64

	// Compaction scratch (old/new offset maps), solver-resident so
	// steady-state reduceDB/simplify allocate nothing.
	relocOld []CRef
	relocNew []CRef

	ok          bool
	assumptions []Lit
	conflictSet []Lit // failed-assumption core after StatusUnsat under assumptions

	model []LBool

	// Budgets; zero values mean unlimited.
	MaxConflicts int64     // per-Solve conflict budget
	Deadline     time.Time // wall-clock cutoff, checked between restarts

	// Cooperative cancellation (SolveContext); polled between restarts
	// and every ctxPollConflicts conflicts inside the search.
	ctx     context.Context
	ctxNext int64 // Stats.Conflicts value at which to poll ctx next

	// Heuristic switches (enabled by default in New).
	ClauseMinimize bool
	PhaseSaving    bool

	// Reusable blocking-clause and projection buffers that keep the
	// enumeration loop allocation-free in steady state (enumerate.go).
	// Clone starts these fresh.
	blockBuf []Lit
	projBuf  []Lit

	Stats Stats

	// rec, when non-nil, receives packed flight-recorder events at the
	// search's rare control-flow points (restarts, reductions, models,
	// exits — never per-propagation work). Clones inherit the pointer,
	// so shard workers interleave their events on one shared
	// conflict-stamped timeline. Nil (the default) costs a single
	// pointer test per event site.
	rec *trace.Recorder

	maxLearnts    float64
	simpDBAssigns int
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		ok:             true,
		varInc:         1,
		clauseInc:      1,
		ClauseMinimize: true,
		PhaseSaving:    true,
		simpDBAssigns:  -1,
	}
}

// NewVar introduces a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, LUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, CRefUndef)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true) // default phase: negative (MiniSat style)
	s.seen = append(s.seen, 0)
	s.wslab.newVar()
	s.order.insert(v, s.activity)
	return v
}

// NewVars introduces n fresh variables and returns the first.
func (s *Solver) NewVars(n int) Var {
	first := Var(len(s.assigns))
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return first
}

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem clauses currently stored
// (level-0-satisfied clauses may have been simplified away).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of retained learnt clauses.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// Okay reports whether the clause database is not yet known unsatisfiable.
func (s *Solver) Okay() bool { return s.ok }

func (s *Solver) value(l Lit) LBool  { return s.assigns[l.Var()].xorSign(l.Sign()) }
func (s *Solver) decisionLevel() int { return len(s.trailLim) }
func (s *Solver) varLevel(v Var) int { return int(s.level[v]) }
func (s *Solver) abstractLevelOK(v Var, mask uint32) bool {
	return mask&(1<<uint(s.level[v]&31)) != 0
}

// SetRecorder installs (or, with nil, removes) the flight recorder
// receiving this solver's search events. Observation-only: recording
// never perturbs the search trajectory.
func (s *Solver) SetRecorder(r *trace.Recorder) { s.rec = r }

// FlightRecorder returns the installed flight recorder, or nil.
func (s *Solver) FlightRecorder() *trace.Recorder { return s.rec }

// record emits a flight-recorder event stamped with the conflict
// clock. The nil test is the entire disabled-path cost.
func (s *Solver) record(k trace.EventKind) {
	if s.rec != nil {
		s.rec.Record(k, uint64(s.Stats.Conflicts))
	}
}

// Value returns the model value of v after a StatusSat Solve.
func (s *Solver) Value(v Var) LBool {
	if int(v) < len(s.model) {
		return s.model[v]
	}
	return LUndef
}

// ValueLit returns the model value of a literal after StatusSat.
func (s *Solver) ValueLit(l Lit) LBool {
	return s.Value(l.Var()).xorSign(l.Sign())
}

// ConflictSet returns the subset of the assumptions under which the last
// Solve proved unsatisfiability (a failed-assumption core, negated form).
func (s *Solver) ConflictSet() []Lit { return s.conflictSet }

// SetPolarity fixes the saved phase of v: the value the solver tries
// first when branching on v. Hybrid diagnosis uses this to steer the
// search toward simulation-derived candidate sets.
func (s *Solver) SetPolarity(v Var, val bool) { s.polarity[v] = !val }

// BumpActivity increases the VSIDS activity of v by amount times the
// current bump increment, so hot variables are branched on first. An
// amount that is not positive and finite, or whose scaled bump
// overflows, is ignored: activities never go negative or NaN, which the
// decision order relies on.
func (s *Solver) BumpActivity(v Var, amount float64) {
	inc := amount * s.varInc
	if !(inc > 0) || math.IsInf(inc, 1) {
		return
	}
	s.bumpVarBy(v, inc)
}

// SetBudget gives subsequent Solve calls a fresh budget: maxConflicts
// conflicts per Solve (0 = unlimited) and a wall-clock deadline of
// timeout from now (0 = none). Long-lived sessions call this at the
// start of every enumeration round so a stale deadline or conflict cap
// left over from an earlier round cannot poison later ones.
func (s *Solver) SetBudget(maxConflicts int64, timeout time.Duration) {
	s.MaxConflicts = maxConflicts
	if timeout > 0 {
		s.Deadline = time.Now().Add(timeout)
	} else {
		s.Deadline = time.Time{}
	}
}

// AddClause adds a clause over the given literals. It reports false if
// the database has become trivially unsatisfiable. The solver must be
// between Solve calls (decision level 0).
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	if !s.ok {
		return false
	}
	// Sort, dedupe, drop false literals, detect satisfied/tautological.
	// The scratch is stored back so a growth here (possible while the
	// database is still conflict-free and analyze has never sized it)
	// happens once per session, not once per call.
	ls := append(s.learntBuf[:0], lits...)
	s.learntBuf = ls
	insertionSortLits(ls)
	out := ls[:0]
	var prev Lit = LitUndef
	for _, l := range ls {
		if l.Var() < 0 || int(l.Var()) >= len(s.assigns) {
			panic("sat: clause literal over undeclared variable")
		}
		switch {
		case s.value(l) == LTrue || l == prev.Neg():
			return true // satisfied or tautology
		case s.value(l) == LFalse || l == prev:
			continue // falsified at level 0, or duplicate
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], CRefUndef)
		s.ok = s.propagate() == CRefUndef
		return s.ok
	}
	cr := s.ca.alloc(out, false)
	s.clauses = append(s.clauses, cr)
	s.attach(cr)
	return true
}

func insertionSortLits(ls []Lit) {
	for i := 1; i < len(ls); i++ {
		x := ls[i]
		j := i - 1
		for j >= 0 && ls[j] > x {
			ls[j+1] = ls[j]
			j--
		}
		ls[j+1] = x
	}
}

// attach installs the clause's two watches. Binary clauses get inline
// watches carrying the other literal, so propagating them never reads
// the arena.
func (s *Solver) attach(cr CRef) {
	lits := s.ca.lits(cr)
	l0, l1 := Lit(lits[0]), Lit(lits[1])
	if len(lits) == 2 {
		s.wslab.push(l0.Neg(), mkBinWatch(cr, l1))
		s.wslab.push(l1.Neg(), mkBinWatch(cr, l0))
		return
	}
	s.wslab.push(l0.Neg(), mkWatch(cr, l1))
	s.wslab.push(l1.Neg(), mkWatch(cr, l0))
}

func (s *Solver) uncheckedEnqueue(l Lit, from CRef) {
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = LFalse
	} else {
		s.assigns[v] = LTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation over the trail; it returns the
// conflicting clause or CRefUndef. It walks one contiguous slab region
// per trail literal, filtering kept watches in place exactly like the
// slice-per-literal version did — same per-literal order, so the
// search stays byte-identical to the golden recording.
func (s *Solver) propagate() CRef {
	confl := CRefUndef
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		r := &s.wslab.rng[p] // stable: rng only grows in NewVar
		off := r.off
		count := r.n
		data := s.wslab.data
		n := uint32(0)
	nextWatch:
		for i := uint32(0); i < count; i++ {
			w := data[off+i]
			if s.value(w.blocker) == LTrue {
				data[off+n] = w
				n++
				continue
			}
			if w.bin() {
				// blocker is the other literal and it is not true: the
				// clause is unit or conflicting, with no arena access.
				data[off+n] = w
				n++
				if s.value(w.blocker) == LFalse {
					confl = w.cref()
					s.qhead = len(s.trail)
					for i++; i < count; i++ {
						data[off+n] = data[off+i]
						n++
					}
					break
				}
				s.uncheckedEnqueue(w.blocker, w.cref())
				continue
			}
			cr := w.cref()
			lits := s.ca.lits(cr)
			// Ensure the falsified literal ~p sits at position 1.
			np := p.Neg()
			if Lit(lits[0]) == np {
				lits[0], lits[1] = lits[1], uint32(np)
			}
			first := Lit(lits[0])
			if first != w.blocker && s.value(first) == LTrue {
				data[off+n] = mkWatch(cr, first)
				n++
				continue
			}
			// Look for a non-false replacement watch.
			for k := 2; k < len(lits); k++ {
				if s.value(Lit(lits[k])) != LFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nl := Lit(lits[1]).Neg()
					// The push may grow the slab's backing array or
					// relocate nl's list; p's own range is untouched (the
					// clause cannot contain both p and ~p, so nl != p) but
					// the array may have moved — re-cache it.
					s.wslab.push(nl, mkWatch(cr, first))
					data = s.wslab.data
					continue nextWatch
				}
			}
			// Clause is unit or conflicting.
			data[off+n] = mkWatch(cr, first)
			n++
			if s.value(first) == LFalse {
				confl = cr
				s.qhead = len(s.trail)
				// Keep remaining watches.
				for i++; i < count; i++ {
					data[off+n] = data[off+i]
					n++
				}
				break
			}
			s.uncheckedEnqueue(first, cr)
		}
		r.n = n
		if confl != CRefUndef {
			return confl
		}
	}
	return CRefUndef
}

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		if s.PhaseSaving {
			s.polarity[v] = s.assigns[v] == LFalse
		}
		s.assigns[v] = LUndef
		s.reason[v] = CRefUndef
		s.order.insert(v, s.activity)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVarBy(v Var, inc float64) {
	s.activity[v] += inc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.order.rescaled(s.activity)
	}
	s.order.update(v, s.activity)
}

func (s *Solver) bumpClause(cr CRef) {
	a := s.ca.act(cr) + float32(s.clauseInc)
	s.ca.setAct(cr, a)
	if a > 1e20 {
		for _, lr := range s.learnts {
			s.ca.setAct(lr, s.ca.act(lr)*1e-20)
		}
		s.clauseInc *= 1e-20
	}
}

const (
	varDecay    = 1 / 0.95
	clauseDecay = 1 / 0.999
)

// normReason returns cr's literals with lits[0] swapped to p, the
// literal the clause implied. Long clauses already satisfy the invariant
// (propagate swaps before enqueueing); only binary clauses can be out of
// order, because their fast path enqueues without touching the arena.
func (s *Solver) normReason(cr CRef, p Lit) []uint32 {
	lits := s.ca.lits(cr)
	if Lit(lits[0]) != p {
		lits[0], lits[1] = lits[1], lits[0]
	}
	return lits
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl CRef) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], LitUndef) // placeholder for the asserting literal
	pathC := 0
	p := LitUndef
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		var lits []uint32
		start := 0
		if p != LitUndef {
			start = 1
			lits = s.normReason(confl, p)
		} else {
			lits = s.ca.lits(confl)
		}
		for _, qw := range lits[start:] {
			q := Lit(qw)
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.seen[v] = 1
				s.bumpVarBy(v, s.varInc)
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		pathC--
		if pathC <= 0 {
			break
		}
	}
	learnt[0] = p.Neg()

	// Conflict-clause minimization: drop literals implied by the rest.
	s.toClear = s.toClear[:0]
	for _, l := range learnt {
		s.seen[l.Var()] = 1
		s.toClear = append(s.toClear, l.Var())
	}
	if s.ClauseMinimize {
		var mask uint32
		for _, l := range learnt[1:] {
			mask |= 1 << uint(s.level[l.Var()]&31)
		}
		n := 1
		for _, l := range learnt[1:] {
			if s.reason[l.Var()] == CRefUndef || !s.litRedundant(l, mask) {
				learnt[n] = l
				n++
			} else {
				s.Stats.MinimizedLit++
			}
		}
		learnt = learnt[:n]
	}
	for _, v := range s.toClear {
		s.seen[v] = 0
	}
	s.learntBuf = learnt

	// Backtrack level: highest level among the non-asserting literals.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = int(s.level[learnt[1].Var()])
	}
	return learnt, bt
}

type redFrame struct {
	c CRef
	i int
}

// litRedundant checks (recursively, with an explicit solver-resident
// stack) whether l is implied by seen literals, so it can be removed
// from the learnt clause.
func (s *Solver) litRedundant(l Lit, mask uint32) bool {
	// Frames iterate reason clauses from position 1: normReason places
	// the implied literal at position 0 first (binary reasons are stored
	// unswapped by the fast path).
	s.normReason(s.reason[l.Var()], l.Neg())
	stack := append(s.redStack[:0], redFrame{s.reason[l.Var()], 1})
	top := len(s.toClear)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		lits := s.ca.lits(f.c)
		if f.i >= len(lits) {
			stack = stack[:len(stack)-1]
			continue
		}
		q := Lit(lits[f.i])
		f.i++
		v := q.Var()
		if s.seen[v] != 0 || s.level[v] == 0 {
			continue
		}
		if s.reason[v] == CRefUndef || !s.abstractLevelOK(v, mask) {
			// Not removable: undo the tentative marks.
			for _, u := range s.toClear[top:] {
				s.seen[u] = 0
			}
			s.toClear = s.toClear[:top]
			s.redStack = stack[:0]
			return false
		}
		s.seen[v] = 1
		s.toClear = append(s.toClear, v)
		s.normReason(s.reason[v], MkLit(v, s.assigns[v] == LFalse))
		stack = append(stack, redFrame{s.reason[v], 1})
	}
	s.redStack = stack[:0]
	return true
}

// computeLBD counts the distinct decision levels among lits using a
// solver-resident stamp buffer — zero allocations per learnt clause
// (the pre-arena version built a map per call).
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdGen++
	var n int32
	for _, l := range lits {
		lev := int(s.level[l.Var()])
		for lev >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, 0)
		}
		if s.lbdStamp[lev] != s.lbdGen {
			s.lbdStamp[lev] = s.lbdGen
			n++
		}
	}
	return n
}

// locked reports whether cr is the live reason of an assigned variable
// (reason clauses must survive reduceDB). Long clauses keep the implied
// literal at position 0 (propagate's swap), but binary clauses may not:
// their fast path enqueues without touching the arena and the lazy
// normalization only runs if the clause reaches conflict analysis — so
// for size-2 clauses both literals are checked. Today reduceDB also
// keeps every binary clause unconditionally; this check stays sound on
// its own so a future policy that deletes binaries cannot free a live
// reason.
func (s *Solver) locked(cr CRef) bool {
	lits := s.ca.lits(cr)
	l0 := Lit(lits[0])
	if s.value(l0) == LTrue && s.reason[l0.Var()] == cr {
		return true
	}
	if len(lits) == 2 {
		l1 := Lit(lits[1])
		return s.value(l1) == LTrue && s.reason[l1.Var()] == cr
	}
	return false
}

// reduceDB removes roughly half of the learnt clauses, preferring high
// LBD and low activity; reason clauses, glue clauses and binary clauses
// survive. The clause list is filtered in place and the arena garbage
// is reclaimed by compaction — no reallocation, unlike the pre-arena
// append([]*clause(nil), ...).
func (s *Solver) reduceDB() {
	s.Stats.Reduces++
	s.record(trace.EvReduceDB)
	sortClauseRefs(s.learnts, &s.ca)
	keep := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, cr := range s.learnts {
		if s.ca.lbd(cr) <= 2 || s.locked(cr) || s.ca.size(cr) == 2 || i >= limit {
			keep = append(keep, cr)
		} else {
			s.ca.free(cr)
		}
	}
	s.learnts = keep
	s.maybeCompact()
	s.rebuildWatches()
}

// rebuildWatches lays every watch list back out contiguously in the
// slab with exact capacities, reclaiming relocation waste. Three passes
// — count, prefix-sum, fill — in clause-list order, which reproduces
// the exact per-literal watch order the slice-per-literal rebuild
// produced (clauses then learnts, two pushes per clause). Steady-state
// zero-alloc: the backing array is reused once grown.
func (s *Solver) rebuildWatches() {
	sl := &s.wslab
	for i := range sl.rng {
		sl.rng[i] = watchRange{}
	}
	for _, cr := range s.clauses {
		lits := s.ca.lits(cr)
		sl.rng[Lit(lits[0]).Neg()].cap++
		sl.rng[Lit(lits[1]).Neg()].cap++
	}
	for _, cr := range s.learnts {
		lits := s.ca.lits(cr)
		sl.rng[Lit(lits[0]).Neg()].cap++
		sl.rng[Lit(lits[1]).Neg()].cap++
	}
	var total uint32
	for i := range sl.rng {
		sl.rng[i].off = total
		total += sl.rng[i].cap
	}
	if uint32(cap(sl.data)) < total {
		sl.data = make([]watch, total)
	} else {
		sl.data = sl.data[:total]
	}
	sl.wasted = 0
	for _, cr := range s.clauses {
		s.attach(cr)
	}
	for _, cr := range s.learnts {
		s.attach(cr)
	}
}

// simplify removes clauses satisfied at level 0. Called between restarts
// when new top-level facts arrived — the "unit literals are not further
// considered after preprocessing" effect the paper notes for BSAT
// instances.
func (s *Solver) simplify() {
	if s.decisionLevel() != 0 || !s.ok {
		return
	}
	if len(s.trail) == s.simpDBAssigns {
		return
	}
	s.Stats.Simplifies++
	s.clauses = s.removeSatisfied(s.clauses)
	s.learnts = s.removeSatisfied(s.learnts)
	s.maybeCompact()
	s.rebuildWatches()
	s.simpDBAssigns = len(s.trail)
}

// removeSatisfied filters the clause list in place, freeing level-0
// satisfied clauses and shrinking level-0 falsified literals beyond the
// watched positions. Zero allocations: the list keeps its backing array
// and the arena absorbs the garbage until compaction.
func (s *Solver) removeSatisfied(cs []CRef) []CRef {
	keep := cs[:0]
outer:
	for _, cr := range cs {
		lits := s.ca.lits(cr)
		for _, qw := range lits {
			l := Lit(qw)
			if s.value(l) == LTrue && s.level[l.Var()] == 0 {
				s.ca.free(cr)
				continue outer
			}
		}
		// Drop level-0 falsified literals beyond the watched positions.
		n := 2
		for i := 2; i < len(lits); i++ {
			l := Lit(lits[i])
			if !(s.value(l) == LFalse && s.level[l.Var()] == 0) {
				lits[n] = lits[i]
				n++
			}
		}
		if n < len(lits) {
			s.ca.setSize(cr, n)
		}
		keep = append(keep, cr)
	}
	return keep
}

// ctxPollConflicts is how many conflicts may pass between cancellation
// polls inside search: frequent enough that ctx.Done() surfaces
// promptly, rare enough that the select never shows up in profiles.
const ctxPollConflicts = 64

// interrupted reports whether the active SolveContext was cancelled.
func (s *Solver) interrupted() bool {
	if s.ctx == nil {
		return false
	}
	select {
	case <-s.ctx.Done():
		return true
	default:
		return false
	}
}

// SolveContext is Solve under a cancellation context: when ctx is done
// the search winds down and returns StatusUnknown (the same verdict an
// expired budget produces), leaving the solver usable. A nil ctx makes
// SolveContext identical to Solve. The context is polled between
// restarts and every ctxPollConflicts conflicts, so cancellation
// surfaces promptly even inside a long search.
func (s *Solver) SolveContext(ctx context.Context, assumptions ...Lit) Status {
	st := s.solve(ctx, assumptions)
	s.cancelUntil(0)
	return st
}

// Solve determines satisfiability under the given assumptions. On
// StatusSat the model is available through Value; on StatusUnsat under
// assumptions, ConflictSet holds a failed-assumption core. StatusUnknown
// reports an expired budget; the solver remains usable.
func (s *Solver) Solve(assumptions ...Lit) Status {
	return s.SolveContext(nil, assumptions...)
}

// solve is SolveContext without the final return to level 0: on
// StatusSat the model's trail stays assigned. Called above level 0 it
// resumes the search from the trail it finds there, which must be a
// fully propagated prefix under the same assumptions plus at most one
// pending asserted literal — the state EnumerateProjected leaves after
// attaching a blocking clause (addBlocking).
func (s *Solver) solve(ctx context.Context, assumptions []Lit) Status {
	s.conflictSet = s.conflictSet[:0]
	if ctx != nil && ctx.Err() != nil {
		return StatusUnknown
	}
	if !s.ok {
		return StatusUnsat
	}
	if !s.Deadline.IsZero() && !time.Now().Before(s.Deadline) {
		// An already-expired deadline fails fast instead of burning a
		// restart's worth of conflicts first (and lets callers detect a
		// stale budget deterministically).
		s.record(trace.EvDeadlineExit)
		return StatusUnknown
	}
	s.ctx, s.ctxNext = ctx, s.Stats.Conflicts+ctxPollConflicts
	defer func() { s.ctx = nil }()
	s.assumptions = append(s.assumptions[:0], assumptions...)

	// Above level 0 the trail is a held model prefix; search's own
	// propagate takes the pending assertion and analyzes any conflict.
	if s.decisionLevel() == 0 && s.propagate() != CRefUndef {
		s.ok = false
		s.record(trace.EvUnsat)
		return StatusUnsat
	}

	startConflicts := s.Stats.Conflicts
	if s.maxLearnts == 0 {
		s.maxLearnts = float64(len(s.clauses)) / 3
		if s.maxLearnts < 5000 {
			s.maxLearnts = 5000
		}
	}
	for restart := int64(1); ; restart++ {
		budget := int64(-1)
		if s.MaxConflicts > 0 {
			budget = startConflicts + s.MaxConflicts - s.Stats.Conflicts
			if budget <= 0 {
				s.record(trace.EvBudgetExit)
				return StatusUnknown
			}
		}
		limit := luby(restart) * 100
		if budget >= 0 && limit > budget {
			limit = budget
		}
		st := s.search(int(limit))
		if st != StatusUnknown {
			if st == StatusUnsat {
				s.record(trace.EvUnsat)
			}
			return st
		}
		s.Stats.Restarts++
		s.record(trace.EvRestart)
		if !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
			s.record(trace.EvDeadlineExit)
			return StatusUnknown
		}
		if s.interrupted() {
			s.record(trace.EvCtxExit)
			return StatusUnknown
		}
		if s.MaxConflicts > 0 && s.Stats.Conflicts-startConflicts >= s.MaxConflicts {
			s.record(trace.EvBudgetExit)
			return StatusUnknown
		}
	}
}

// search runs CDCL until a verdict, a restart (after nConflicts
// conflicts), or an expired budget.
func (s *Solver) search(nConflicts int) Status {
	conflicts := 0
	for {
		confl := s.propagate()
		if confl != CRefUndef {
			s.Stats.Conflicts++
			conflicts++
			if s.ctx != nil && s.Stats.Conflicts >= s.ctxNext {
				s.ctxNext = s.Stats.Conflicts + ctxPollConflicts
				if s.interrupted() {
					s.cancelUntil(0)
					return StatusUnknown
				}
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return StatusUnsat
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], CRefUndef)
			} else {
				cr := s.ca.alloc(learnt, true)
				s.ca.setLBD(cr, s.computeLBD(learnt))
				s.learnts = append(s.learnts, cr)
				s.attach(cr)
				s.bumpClause(cr)
				s.uncheckedEnqueue(learnt[0], cr)
				s.Stats.Learnt++
				s.Stats.LearntLits += int64(len(learnt))
			}
			s.varInc *= varDecay
			s.clauseInc *= clauseDecay
			continue
		}

		// No conflict.
		if conflicts >= nConflicts {
			s.cancelUntil(0)
			return StatusUnknown
		}
		if s.decisionLevel() == 0 {
			s.simplify()
			if !s.ok {
				return StatusUnsat
			}
		}
		if float64(len(s.learnts))-float64(len(s.trail)) >= s.maxLearnts {
			s.maxLearnts *= 1.1
			s.reduceDB()
		}

		// Decide: assumptions first, then VSIDS.
		var next Lit = LitUndef
		for s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.value(p) {
			case LTrue:
				s.newDecisionLevel() // dummy level for satisfied assumption
			case LFalse:
				s.analyzeFinal(p.Neg())
				return StatusUnsat
			default:
				next = p
			}
			if next != LitUndef {
				break
			}
		}
		if next == LitUndef {
			next = s.popDecision()
			if next == LitUndef {
				// All variables assigned: model found.
				s.model = append(s.model[:0], s.assigns...)
				s.record(trace.EvModel)
				return StatusSat
			}
		}
		s.Stats.Decisions++
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, CRefUndef)
	}
}

// popDecision pops the decision order until it yields an unassigned
// variable and returns it with its saved phase, or LitUndef once
// the order runs dry. Popped assigned variables leave the queue;
// cancelUntil reinserts them when they are unassigned.
func (s *Solver) popDecision() Lit {
	q := &s.order
	for !q.empty() {
		v := q.removeMax(s.activity)
		if s.assigns[v] == LUndef {
			return MkLit(v, s.polarity[v])
		}
	}
	return LitUndef
}

// analyzeFinal computes the failed-assumption core when assumption p
// (negated form supplied) conflicts with the current state.
func (s *Solver) analyzeFinal(p Lit) {
	s.conflictSet = append(s.conflictSet[:0], p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if s.reason[v] == CRefUndef {
			if s.level[v] > 0 {
				s.conflictSet = append(s.conflictSet, s.trail[i].Neg())
			}
		} else {
			lits := s.normReason(s.reason[v], s.trail[i])
			for _, qw := range lits[1:] {
				l := Lit(qw)
				if s.level[l.Var()] > 0 {
					s.seen[l.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
}
