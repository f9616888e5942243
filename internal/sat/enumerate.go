package sat

import "context"

// EnumOptions configures projected model enumeration.
type EnumOptions struct {
	// Assumptions hold for every model of the enumeration (e.g. the
	// cardinality bound of the current diagnosis stage).
	Assumptions []Lit
	// Ctx, when non-nil, cancels the enumeration cooperatively: it is
	// polled before every search, inside it (as by SolveContext), and
	// after every model emission, so ctx.Done() surfaces as an
	// incomplete enumeration promptly and without growing the clause DB
	// past the cancellation point.
	Ctx context.Context
	// MaxSolutions stops enumeration after this many models (0 = no cap).
	MaxSolutions int
	// ExactBlocking blocks only the exact projected assignment (both
	// polarities in the blocking clause) instead of the default
	// subset-blocking that forbids all supersets of the true-set. The
	// default suits minimal-correction enumeration; ExactBlocking suits
	// enumerating distinct assignments (e.g. distinguishing test vectors).
	ExactBlocking bool
	// BlockExtra literals are appended to every blocking clause. A
	// long-lived session passes the negation of a round-guard literal
	// here (and the guard itself in Assumptions): during the round the
	// guard is assumed true so blocking behaves as usual, and asserting
	// the guard false afterwards retracts every blocking clause of the
	// round at once, leaving the solver clean for the next query. Each
	// literal must be false in every model of the enumeration (assume
	// its negation), like the rest of the blocking clause.
	BlockExtra []Lit
}

// EnumerateProjected enumerates the models of the current database
// projected onto proj: after every satisfying assignment, a blocking
// clause forbidding the set of projected literals that were true is added
// permanently, so no later model (in this or any following stage) repeats
// or extends an already reported projection. This is precisely the
// enumeration discipline of the paper's Figures 3 and 4: iterating the
// size limit upward with blocking yields exactly the solutions containing
// only essential candidates (Lemma 3).
//
// The model's trail is held across the block: the clause is attached
// where the search stands and the next search resumes from its
// assertion level under the same assumptions, so the assumption levels
// and everything the clause does not touch are not re-derived. Every
// exit returns the solver to decision level 0.
//
// fn is called with the projected literals that are true in the model
// (aliasing an internal buffer; copy to retain). The solver is above
// level 0 while fn runs: fn may read the model but must not add clauses.
// If fn returns false the enumeration stops early and the model is not
// blocked.
//
// complete is true iff the solution space under the assumptions was
// exhausted (final UNSAT), false on budget expiry, fn abort, or cap.
func (s *Solver) EnumerateProjected(proj []Lit, opts EnumOptions, fn func(trueLits []Lit) bool) (n int, complete bool) {
	buf := s.projBuf[:0]
	defer func() {
		s.projBuf = buf[:0]
		s.cancelUntil(0)
	}()
	for {
		if opts.MaxSolutions > 0 && n >= opts.MaxSolutions {
			return n, false
		}
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return n, false
		}
		switch s.solve(opts.Ctx, opts.Assumptions) {
		case StatusUnknown:
			return n, false
		case StatusUnsat:
			return n, true
		}
		buf = buf[:0]
		for _, l := range proj {
			if s.ValueLit(l) == LTrue {
				buf = append(buf, l)
			}
		}
		n++
		if fn != nil && !fn(buf) {
			return n, false
		}
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			// A consumer that observed the cancellation mid-model must
			// not grow the clause DB past the cancellation point.
			return n, false
		}
		if !s.addBlocking(s.blockingClause(proj, buf, opts)) {
			// Blocking the empty projection (or a level-0 contradiction)
			// empties the solution space.
			return n, true
		}
	}
}

// blockingClause assembles the blocking clause for the current model in
// the solver-resident buffer (aliased by the return value; consumed
// before the next model).
func (s *Solver) blockingClause(proj, trueLits []Lit, opts EnumOptions) []Lit {
	block := s.blockBuf[:0]
	if opts.ExactBlocking {
		for _, l := range proj {
			switch s.ValueLit(l) {
			case LTrue:
				block = append(block, l.Neg())
			case LFalse:
				block = append(block, l)
			}
		}
	} else {
		for _, l := range trueLits {
			block = append(block, l.Neg())
		}
	}
	block = append(block, opts.BlockExtra...)
	s.blockBuf = block
	return block
}

// addBlocking attaches a clause whose every literal is false on the
// held model trail, then backjumps to the clause's assertion level. It
// filters lits in place: literals false at level 0 and repeats are
// dropped. What is left decides the jump, as for a learnt clause:
//   - nothing: the database is unsatisfiable (reported as false);
//   - one literal: it becomes a level-0 fact, propagated as AddClause
//     does (false if that conflicts);
//   - otherwise the two highest-level literals are watched. A single
//     literal at the top level h is asserted at the second-highest
//     level with the clause as its reason; several literals at h leave
//     the clause unit-free after a jump to h-1.
func (s *Solver) addBlocking(lits []Lit) bool {
	out := lits[:0]
	for _, l := range lits {
		v := l.Var()
		if s.value(l) != LFalse {
			panic("sat: blocking literal not false in the model")
		}
		if s.level[v] == 0 || s.seen[v] != 0 {
			continue
		}
		s.seen[v] = 1
		out = append(out, l)
	}
	for _, l := range out {
		s.seen[l.Var()] = 0
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.cancelUntil(0)
		s.uncheckedEnqueue(out[0], CRefUndef)
		s.ok = s.propagate() == CRefUndef
		return s.ok
	}
	s.raiseTopLevel(out)
	s.raiseTopLevel(out[1:])
	top, second := s.varLevel(out[0].Var()), s.varLevel(out[1].Var())
	cr := s.ca.alloc(out, false)
	s.clauses = append(s.clauses, cr)
	if top > second {
		s.cancelUntil(second)
		s.uncheckedEnqueue(out[0], cr)
	} else {
		s.cancelUntil(top - 1)
	}
	s.attach(cr)
	return true
}

// raiseTopLevel swaps the highest-level literal of lits to lits[0].
func (s *Solver) raiseTopLevel(lits []Lit) {
	maxI := 0
	for i := 1; i < len(lits); i++ {
		if s.level[lits[i].Var()] > s.level[lits[maxI].Var()] {
			maxI = i
		}
	}
	lits[0], lits[maxI] = lits[maxI], lits[0]
}
