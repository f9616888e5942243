package cnf

import "repro/internal/sat"

// Ladder exposes unary counter outputs over a literal set: the j-th
// output (1-based) is implied true whenever at least j of the inputs are
// true. Assuming its negation therefore enforces "at most j-1", so the
// paper's incremental limit loop (Figure 3, line 2) becomes one
// assumption literal per stage. The ladder is one-way (inputs imply
// counters), which is sufficient and cheapest for bounding.
//
// The ladder is a balanced merge tree (a totalizer) whose every node is
// truncated to the current width. It grows in place: widening adds only
// the outputs and clauses of the new counts, as in the incremental
// totalizer of Martins, Joshi, Manquinho and Lynce ("Incremental
// Cardinality Constraints for MaxSAT", CP 2014), so a bound wider than
// the build asked for costs one growth instead of a new instance.
type Ladder struct {
	lits []sat.Lit // the inputs, the tree's leaves
	// nodes holds the outputs of every inner node in post-order (root
	// last): the subtree over a span of n inputs starting at inner index
	// at occupies nodes[at : at+n-1]. Each node has min(width, span)
	// outputs.
	nodes [][]sat.Lit
	width int // current width: min(requested, len(lits))
}

// AddLadder builds a one-way totalizer over lits able to bound up to
// maxBound without growing: an empty tree grown to width maxBound+1 (or
// len(lits), if smaller). A negative maxBound is clamped to 0 (a
// width-1 ladder that can still enforce AtMost(0)).
func AddLadder(s *sat.Solver, lits []sat.Lit, maxBound int) *Ladder {
	l := newLadder(lits)
	l.grow(s, max(maxBound, 0)+1)
	return l
}

// newLadder returns the empty tree over lits: width 0, no variables.
func newLadder(lits []sat.Lit) *Ladder {
	return &Ladder{
		lits:  append([]sat.Lit(nil), lits...),
		nodes: make([][]sat.Lit, max(len(lits)-1, 0)),
	}
}

// Width returns the number of counter outputs the ladder has now: the
// largest bound it enforces without growing, plus one.
func (l *Ladder) Width() int { return l.width }

// AtMost returns an assumption literal enforcing that at most bound of
// the inputs are true, growing the ladder first when bound is at or past
// its width. Growth adds clauses, so s must be at decision level 0 (any
// time between solves). Only a bound at or above the input count needs
// no constraint; it yields LitUndef, which the caller drops from its
// assumptions. A negative bound is clamped to 0, the tightest
// enforceable constraint — AtMost is total so no caller-supplied bound
// can crash a shared server.
func (l *Ladder) AtMost(s *sat.Solver, bound int) sat.Lit {
	bound = max(bound, 0)
	if bound >= len(l.lits) {
		return sat.LitUndef
	}
	l.grow(s, bound+1)
	return l.root()[bound].Neg() // ¬(≥ bound+1)
}

// root returns the outputs of the whole tree.
func (l *Ladder) root() []sat.Lit {
	if len(l.lits) == 1 {
		return l.lits
	}
	return l.nodes[len(l.nodes)-1]
}

// grow widens the ladder to width outputs (capped at the input count).
func (l *Ladder) grow(s *sat.Solver, width int) {
	width = min(width, len(l.lits))
	if width <= l.width {
		return
	}
	l.width = width
	l.growNode(s, 0, l.lits, width)
}

// growNode widens the subtree over lits, whose inner nodes start at
// index at, to width outputs and returns its outputs. Children grow
// first, then the node allocates its new outputs and adds only the sum
// clauses left_i ∧ right_j → out_{i+j} for the new counts i+j. Growing
// an empty tree therefore emits exactly the variable order and clause
// order of a one-shot build.
func (l *Ladder) growNode(s *sat.Solver, at int, lits []sat.Lit, width int) []sat.Lit {
	if len(lits) == 1 {
		return lits
	}
	node := &l.nodes[at+len(lits)-2]
	old, w := len(*node), min(width, len(lits))
	if w <= old {
		return *node // saturated: the whole subtree already counts to its size
	}
	mid := len(lits) / 2
	left := l.growNode(s, at, lits[:mid], width)
	right := l.growNode(s, at+mid-1, lits[mid:], width)
	for range w - old {
		*node = append(*node, sat.PosLit(s.NewVar()))
	}
	out := *node
	// left_i ∧ right_j → out_{i+j}, with left_0 and right_0 true (so
	// left_i → out_i and right_j → out_j), for old < i+j <= w.
	var clause [3]sat.Lit
	for i := 0; i <= len(left); i++ {
		for j := max(old+1-i, 0); j <= min(len(right), w-i); j++ {
			c := clause[:0]
			if i > 0 {
				c = append(c, left[i-1].Neg())
			}
			if j > 0 {
				c = append(c, right[j-1].Neg())
			}
			s.AddClause(append(c, out[i+j-1])...)
		}
	}
	return out
}

// clone returns an independent copy of the ladder's tree, so a forked
// session that grows its ladder never writes into the original's nodes.
func (l *Ladder) clone() *Ladder {
	c := &Ladder{lits: l.lits, nodes: make([][]sat.Lit, len(l.nodes)), width: l.width}
	for i, out := range l.nodes {
		c.nodes[i] = append([]sat.Lit(nil), out...)
	}
	return c
}
