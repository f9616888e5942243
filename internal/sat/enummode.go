package sat

import "fmt"

// EnumMode selects the enumeration strategy of EnumerateProjected.
//
// The legacy mode re-solves from scratch after every blocking clause and
// only declares a model once every variable is assigned. The projected
// mode is structurally different — it terminates each model early and
// resumes the search in place after blocking — so, like the gen2 search
// configuration, it is gated behind an explicit opt-in and pinned by its
// own differential golden (testdata/enum_golden.json); the default
// goldens never see it.
type EnumMode int

const (
	// EnumLegacy is the historical enumeration loop: one full Solve per
	// model, blocking clause added at level 0, search restarted from
	// scratch. This is the mode the default differential goldens pin.
	EnumLegacy EnumMode = iota
	// EnumProjected is the projection-aware loop: search declares a
	// model as soon as every projected variable is assigned and every
	// problem clause is satisfied (early model termination), the
	// blocking clause is attached in place with a backjump to the level
	// where it becomes unit (blocked-continue), and free variables
	// unwound by that backjump are withheld from the VSIDS heap
	// (order damping). The enumerated solution set is identical for the
	// diagnosis ladder discipline; only the trajectory differs.
	EnumProjected
)

// String names the mode using its wire spelling.
func (m EnumMode) String() string {
	if m == EnumProjected {
		return "projected"
	}
	return "legacy"
}

// EnumModeByName resolves a wire name to an enumeration mode. The empty
// string selects the legacy mode, so absent request fields keep today's
// behaviour. Unknown names are rejected here once, which lets the
// service turn them into a 400 before any session work happens.
func EnumModeByName(name string) (EnumMode, error) {
	switch name {
	case "", "legacy":
		return EnumLegacy, nil
	case "projected":
		return EnumProjected, nil
	default:
		return EnumLegacy, fmt.Errorf("sat: unknown enumeration mode %q (valid: legacy, projected)", name)
	}
}

// enumChronoBT is the chronological-backtracking distance the projected
// mode enforces while the tracker is active (tighter of this and the
// search configuration's own ChronoBT), and enumFatLevel is the average
// trail-literals-per-level density above which it applies. See the
// conflict branch of search for rationale.
const (
	enumChronoBT = 32
	enumFatLevel = 32
)

// enumTracker is the solver-resident state behind EnumProjected. A
// model is certified as soon as every projected variable is assigned
// (projUnassigned, maintained incrementally by the uncheckedEnqueue and
// cancelUntil hooks, hits zero) and every problem clause has a true
// literal — regardless of how many free variables remain unassigned
// (any completion satisfies the problem clauses, and every learnt is
// implied by them).
//
// Clause satisfaction is checked lazily by enumScan rather than
// maintained incrementally: an earlier design stamped each clause with
// the trail position of its first satisfying literal via per-literal
// occurrence lists, and profiling showed the stamp upkeep — one
// occurrence-list walk with a random arena load per entry on every
// enqueue and every unwind — dominating the whole enumeration (over
// 60% of CPU). The lazy scan touches clauses sequentially, only at
// decide points after the projection is complete, and costs the hot
// propagate/backtrack loops nothing. It also needs no invalidation
// protocol when simplify/reduceDB shrink, free, or relocate clauses:
// the scan reads the live clause list and assignment directly.
type enumTracker struct {
	active bool

	isProj         []bool // per-var projection membership
	projUnassigned int

	// Order damping: dampSkip makes cancelUntil withhold non-projection
	// variables from the VSIDS heap (set only around blocked-continue
	// backjumps); damped counts the withheld variables so the decide
	// loop can refill the heap if it runs dry before a model is
	// certified.
	dampSkip bool
	damped   int

	// projOrder is a secondary VSIDS heap holding only projection
	// variables. While projUnassigned > 0 the decide loop drains it
	// before the main heap, so every model is certified over a short
	// projected prefix and the free suffix is never decided at all —
	// early termination then skips it wholesale, and the blocking
	// clause's literals land at shallow levels the blocked-continue
	// backjump can retain. Variables may sit in both heaps at once;
	// the pop side skips assigned variables, so stale entries are
	// harmless (same discipline as the main heap).
	projOrder varOrder

	// scan is the circular cursor of enumScan over s.clauses. It marks
	// where the last scan stopped, so successive completion decisions
	// resume at the clause they were steering toward instead of
	// re-walking the satisfied prefix. Backtracking can unsatisfy
	// clauses behind the cursor; correctness is unaffected because a
	// certification always requires a full satisfied circle.
	scan int
}

// enumActivate arms the tracker for an enumeration over proj. Must be
// called at decision level 0.
func (s *Solver) enumActivate(proj []Lit) {
	t := &s.enum
	if len(t.isProj) < len(s.assigns) {
		t.isProj = make([]bool, len(s.assigns))
	}
	for i := range t.isProj {
		t.isProj[i] = false
	}
	for _, l := range proj {
		t.isProj[l.Var()] = true
	}
	t.active = true
	t.dampSkip = false
	t.damped = 0
	t.scan = 0
	t.projOrder.clear()
	t.projUnassigned = 0
	for v, p := range t.isProj {
		if p && s.assigns[v] == LUndef {
			t.projUnassigned++
			if s.decision[v] {
				t.projOrder.insert(Var(v), s.activity)
			}
		}
	}
}

// enumDeactivate disarms the tracker and returns every unassigned
// decision variable to the heap (damped variables are no longer on the
// trail, so cancelUntil alone would never reinsert them).
func (s *Solver) enumDeactivate() {
	t := &s.enum
	if !t.active {
		return
	}
	t.active = false
	t.dampSkip = false
	t.damped = 0
	t.projOrder.clear()
	for v := range s.assigns {
		if s.assigns[v] == LUndef && s.decision[v] {
			s.order.insert(Var(v), s.activity)
		}
	}
}

// enumScan walks the problem clauses circularly from the cursor looking
// for one with no true literal. All-satisfied (a full circle) certifies
// a model: allSat is true and the caller may terminate early. Otherwise
// the first unsatisfied clause steers the completion: pick is its first
// unassigned decision variable with the saved polarity, or LitUndef if
// the clause has none (the caller falls back to the main heap).
//
// Steering decisions toward unsatisfied clauses makes the
// post-projection completion converge in a few dozen decisions instead
// of wandering the global VSIDS order through thousands of variables no
// unsatisfied clause mentions; keeping the saved polarity (rather than
// forcing the clause's own literal true) lets the phase memory of the
// previous model replay, which measurably lowers the conflict rate
// between models.
//
// Blocking clauses added by blockAndContinue are scanned like any other
// problem clause but can never be picked from: their literals are all
// over projected variables (plus guard literals pinned through the
// assumptions), so once the projection is complete they are either
// satisfied or have already conflicted.
func (s *Solver) enumScan() (pick Lit, allSat bool) {
	t := &s.enum
	for n := len(s.clauses); n > 0; n-- {
		if t.scan >= len(s.clauses) {
			t.scan = 0
		}
		sat := false
		pick = LitUndef
		for _, qw := range s.ca.lits(s.clauses[t.scan]) {
			l := Lit(qw)
			if s.value(l) == LTrue {
				sat = true
				break
			}
			if pick == LitUndef {
				if v := l.Var(); s.assigns[v] == LUndef && s.decision[v] {
					pick = MkLit(v, s.polarity[v])
				}
			}
		}
		if !sat {
			return pick, false
		}
		t.scan++
	}
	return LitUndef, true
}

// enumRefillOrder returns the damped variables to the heap. The decide
// loop calls it when the heap runs dry while clauses remain unsatisfied
// — the correctness escape hatch of order damping.
func (s *Solver) enumRefillOrder() bool {
	t := &s.enum
	if t.damped == 0 {
		return false
	}
	t.damped = 0
	refilled := false
	for v := range s.assigns {
		if s.assigns[v] == LUndef && s.decision[v] && !s.order.contains(Var(v)) {
			s.order.insert(Var(v), s.activity)
			refilled = true
		}
	}
	return refilled
}
