package sat

import (
	"context"
	"time"

	"repro/internal/trace"
)

// Builder is the clause-construction surface of a SAT backend: fresh
// variables and clause addition. The CNF encoders (gate functions,
// correction multiplexers, cardinality ladders) are written against
// Builder, so any Backend — not just the built-in Solver — can be
// encoded into.
type Builder interface {
	// NewVar introduces a fresh variable and returns it.
	NewVar() Var
	// AddClause adds a clause over the given literals, reporting false
	// when the database has become trivially unsatisfiable.
	AddClause(lits ...Lit) bool
}

// Backend abstracts the CDCL solver behind a diagnosis session: the
// full incremental surface the cnf and core layers rely on — clause
// construction, (context-aware) solving under assumptions, model and
// failed-assumption access, budgets, decision-heuristic steering,
// projected model enumeration, and cloning for sharded search.
//
// The built-in Solver is the reference implementation. Alternative
// backends (a different CDCL engine, a remote solver) plug into
// cnf.DiagOptions.Backend; everything above the session — BSAT, CEGAR,
// sharded enumeration, the engine registry — is backend-agnostic.
type Backend interface {
	Builder

	// NumVars returns the number of declared variables.
	NumVars() int
	// NumClauses returns the number of stored problem clauses.
	NumClauses() int
	// Okay reports whether the database is not yet known unsatisfiable.
	Okay() bool

	// Solve determines satisfiability under the given assumptions.
	Solve(assumptions ...Lit) Status
	// SolveContext is Solve with cooperative cancellation: when ctx is
	// done the search returns StatusUnknown promptly. A nil ctx behaves
	// exactly like Solve.
	SolveContext(ctx context.Context, assumptions ...Lit) Status
	// Value returns the model value of v after a StatusSat solve.
	Value(v Var) LBool
	// ValueLit returns the model value of a literal after StatusSat.
	ValueLit(l Lit) LBool
	// ConflictSet returns the failed-assumption core after a StatusUnsat
	// solve under assumptions.
	ConflictSet() []Lit

	// SetBudget installs a fresh per-Solve conflict budget and wall-clock
	// deadline (zero values mean unlimited).
	SetBudget(maxConflicts int64, timeout time.Duration)
	// SetPolarity fixes the saved phase tried first when branching on v.
	SetPolarity(v Var, val bool)
	// BumpActivity boosts the decision activity of v (hybrid steering).
	BumpActivity(v Var, amount float64)
	// Statistics returns the accumulated solver work counters.
	Statistics() Stats
	// SetRecorder installs (or with nil removes) a flight recorder
	// receiving the backend's search events. Observation-only: a
	// recorder must never perturb the search trajectory. Clones share
	// their parent's recorder.
	SetRecorder(r *trace.Recorder)
	// FlightRecorder returns the installed flight recorder, or nil.
	FlightRecorder() *trace.Recorder

	// EnumerateProjected enumerates models projected onto proj with
	// subset blocking (the Figure 3/4 discipline). It returns at level
	// 0 on every exit; fn must not add clauses.
	EnumerateProjected(proj []Lit, opts EnumOptions, fn func(trueLits []Lit) bool) (n int, complete bool)

	// Clone returns an independent snapshot of the backend — clause
	// database, variable state, saved phases and activities — optionally
	// carrying the learnt clauses. Sharded enumeration forks one clone
	// per shard so independent searches start from the shared encoding.
	Clone(keepLearnts bool) Backend
}

var _ Backend = (*Solver)(nil)
