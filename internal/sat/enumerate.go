package sat

import "context"

// EnumOptions configures projected model enumeration.
type EnumOptions struct {
	// Assumptions are passed to every Solve call (e.g. the cardinality
	// bound of the current diagnosis stage).
	Assumptions []Lit
	// Ctx, when non-nil, cancels the enumeration cooperatively: it is
	// polled before every Solve, inside the search (SolveContext), and
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
	// round at once, leaving the solver clean for the next query.
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
// fn is called with the projected literals that are true in the model
// (aliasing an internal buffer; copy to retain). If fn returns false the
// enumeration stops early.
//
// complete is true iff the solution space under the assumptions was
// exhausted (final UNSAT), false on budget expiry, fn abort, or cap.
func (s *Solver) EnumerateProjected(proj []Lit, opts EnumOptions, fn func(trueLits []Lit) bool) (n int, complete bool) {
	buf := s.projBuf[:0]
	defer func() { s.projBuf = buf[:0] }()
	for {
		if opts.MaxSolutions > 0 && n >= opts.MaxSolutions {
			return n, false
		}
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return n, false
		}
		switch s.SolveContext(opts.Ctx, opts.Assumptions...) {
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
		block := s.blockingClause(proj, buf, opts)
		if !s.AddClause(block...) {
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
