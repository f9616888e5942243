// Package sat implements a complete incremental CDCL SAT solver in the
// lineage of GRASP/Chaff/MiniSat: two-literal watching, first-UIP conflict
// learning with clause minimization, VSIDS decision heuristics with phase
// saving, Luby restarts, activity/LBD-based learnt-clause reduction,
// solving under assumptions, and level-0 database simplification.
//
// The paper under reproduction ran zchaff both for the SAT-based diagnosis
// instances and for the set-covering instances; this package plays that
// role for the diagnosis instances (package cover searches the covering
// ones directly). All-solutions enumeration with blocking clauses (the
// engine of BSAT) is provided by EnumerateProjected.
package sat

import "fmt"

// Var is a 0-based propositional variable index.
type Var int32

// Lit is a literal: variable times two, plus one if negated.
type Lit int32

// LitUndef is the absent literal.
const LitUndef Lit = -1

// MkLit builds a literal over v, negated if neg.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1) | 1 }

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// String renders the literal in DIMACS style (variables 1-based).
func (l Lit) String() string {
	if l == LitUndef {
		return "undef"
	}
	if l.Sign() {
		return fmt.Sprintf("-%d", int(l.Var())+1)
	}
	return fmt.Sprintf("%d", int(l.Var())+1)
}

// LBool is a lifted Boolean: true, false or undefined.
type LBool int8

// LBool constants.
const (
	LUndef LBool = 0
	LTrue  LBool = 1
	LFalse LBool = -1
)

// String renders the lifted Boolean.
func (b LBool) String() string {
	switch b {
	case LTrue:
		return "true"
	case LFalse:
		return "false"
	default:
		return "undef"
	}
}

// xorSign flips the polarity of an assignment for a negated literal.
func (b LBool) xorSign(neg bool) LBool {
	if neg {
		return -b
	}
	return b
}

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes. StatusUnknown means a budget (conflicts, deadline or
// user stop) expired before a verdict.
const (
	StatusUnknown Status = iota
	StatusSat
	StatusUnsat
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusSat:
		return "SAT"
	case StatusUnsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Stats counts solver work; useful for the paper's performance analysis
// and the hybrid experiments.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
	LearntLits   int64
	MinimizedLit int64
	Simplifies   int64
	Reduces      int64
	// EarlyTerms is always 0: the solver declares a model only once
	// every variable is assigned. It stays for readers that still
	// report it.
	EarlyTerms int64
}

// Add returns the field-wise sum s + o. Sharded enumeration uses it to
// aggregate the per-clone work counters into one report.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Decisions:    s.Decisions + o.Decisions,
		Propagations: s.Propagations + o.Propagations,
		Conflicts:    s.Conflicts + o.Conflicts,
		Restarts:     s.Restarts + o.Restarts,
		Learnt:       s.Learnt + o.Learnt,
		LearntLits:   s.LearntLits + o.LearntLits,
		MinimizedLit: s.MinimizedLit + o.MinimizedLit,
		Simplifies:   s.Simplifies + o.Simplifies,
		Reduces:      s.Reduces + o.Reduces,
		EarlyTerms:   s.EarlyTerms + o.EarlyTerms,
	}
}

// Sub returns the field-wise difference s - o: the work performed since
// the snapshot o was taken. Long-lived sessions use it to attribute
// solver work to individual enumeration rounds.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Decisions:    s.Decisions - o.Decisions,
		Propagations: s.Propagations - o.Propagations,
		Conflicts:    s.Conflicts - o.Conflicts,
		Restarts:     s.Restarts - o.Restarts,
		Learnt:       s.Learnt - o.Learnt,
		LearntLits:   s.LearntLits - o.LearntLits,
		MinimizedLit: s.MinimizedLit - o.MinimizedLit,
		Simplifies:   s.Simplifies - o.Simplifies,
		Reduces:      s.Reduces - o.Reduces,
		EarlyTerms:   s.EarlyTerms - o.EarlyTerms,
	}
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
func luby(i int64) int64 {
	x := i - 1
	size, seq := int64(1), uint(0)
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << seq
}
