package cnf

import "repro/internal/sat"

// Ladder exposes unary counter outputs over a literal set: AtLeast[j]
// (1-based) is implied true whenever at least j of the inputs are true.
// Assuming its negation therefore enforces "at most j-1", so the paper's
// incremental limit loop (Figure 3, line 2) becomes one assumption
// literal per stage. The ladder is one-way (inputs imply counters),
// which is sufficient and cheapest for bounding.
type Ladder struct {
	atLeast []sat.Lit // index j-1 holds the "≥ j" literal
	n       int       // number of input literals
}

// Width returns the highest representable count.
func (l *Ladder) Width() int { return len(l.atLeast) }

// AtMost returns an assumption literal enforcing that at most bound of
// the inputs are true. Bounds at or above the ladder width (or the input
// count) need no constraint and yield LitUndef, which Solve treats as an
// absent assumption when filtered by the caller. A negative bound is
// clamped to 0, the tightest enforceable constraint — AtMost is total so
// no caller-supplied bound can crash a shared server.
func (l *Ladder) AtMost(bound int) sat.Lit {
	if bound < 0 {
		bound = 0
	}
	if bound >= l.n || bound >= len(l.atLeast) {
		return sat.LitUndef
	}
	return l.atLeast[bound].Neg() // ¬(≥ bound+1)
}

// AddLadder builds a one-way totalizer over lits able to bound up to
// maxBound: a balanced merge tree whose every node is truncated to the
// counter width maxBound+1 (or len(lits), if smaller). A negative
// maxBound is clamped to 0 (a width-1 ladder that can still enforce
// AtMost(0)).
func AddLadder(s *sat.Solver, lits []sat.Lit, maxBound int) *Ladder {
	n := len(lits)
	width := min(max(maxBound, 0)+1, n)
	if width == 0 {
		return &Ladder{n: n}
	}
	var build func(ls []sat.Lit) []sat.Lit
	build = func(ls []sat.Lit) []sat.Lit {
		if len(ls) == 1 {
			return []sat.Lit{ls[0]}
		}
		mid := len(ls) / 2
		left := build(ls[:mid])
		right := build(ls[mid:])
		out := make([]sat.Lit, min(len(left)+len(right), width))
		for i := range out {
			out[i] = sat.PosLit(s.NewVar())
		}
		// sum: left_i & right_j -> out_{i+j}; left_i -> out_i; right_j -> out_j.
		for i := 0; i <= len(left); i++ {
			for j := 0; j <= len(right); j++ {
				k := i + j
				if k == 0 || k > len(out) {
					continue
				}
				clause := make([]sat.Lit, 0, 3)
				if i > 0 {
					clause = append(clause, left[i-1].Neg())
				}
				if j > 0 {
					clause = append(clause, right[j-1].Neg())
				}
				clause = append(clause, out[k-1])
				s.AddClause(clause...)
			}
		}
		return out
	}
	return &Ladder{atLeast: build(lits), n: n}
}
