package cnf

import (
	"slices"

	"repro/internal/sat"
)

// Ladder exposes unary counter outputs over a literal set: the j-th
// output (1-based) is implied true whenever at least j of the inputs are
// true. Assuming its negation therefore enforces "at most j-1", so the
// paper's incremental limit loop (Figure 3, line 2) becomes one
// assumption literal per stage. The ladder is one-way (inputs imply
// counters), which is sufficient and cheapest for bounding.
//
// The ladder is a merge tree (a totalizer) whose every node is
// truncated to the current width, and it changes in place in two ways,
// as in the incremental totalizer of Martins, Joshi, Manquinho and Lynce
// ("Incremental Cardinality Constraints for MaxSAT", CP 2014):
//
//   - Widening adds only the outputs and clauses of the new counts, so
//     a bound wider than the build asked for costs one growth instead
//     of a new instance.
//   - Inputs may be added at any time between solves (Add). They stay
//     pending until the next AtMost, which encodes them as one batch:
//     the first batch becomes a balanced tree, and every later batch a
//     balanced subtree joined to the old root by one new merge node at
//     the current width.
type Ladder struct {
	lits []sat.Lit // the inputs, in the order added
	// pending counts the inputs at the end of lits not yet in the tree.
	pending int
	// nodes holds the tree: leaves and merge nodes, children before
	// their parent. root indexes the root (-1 while the tree is empty).
	nodes []ladderNode
	root  int
	want  int // the widest width asked for so far
}

// ladderNode is one node of the merge tree. A leaf has no children and
// its one output is its input; a merge node has min(width, size)
// outputs.
type ladderNode struct {
	left, right int // child indices; -1 for a leaf
	size        int // inputs below the node
	out         []sat.Lit
}

// AddLadder builds a one-way totalizer over lits able to bound up to
// maxBound without growing: a ladder over lits grown to width
// maxBound+1 (or len(lits), if smaller). A negative maxBound is clamped
// to 0 (a width-1 ladder that can still enforce AtMost(0)).
func AddLadder(s *sat.Solver, lits []sat.Lit, maxBound int) *Ladder {
	l := newLadder()
	l.Add(lits...)
	l.grow(s, max(maxBound, 0)+1)
	return l
}

// newLadder returns the ladder over no inputs: width 0, no variables.
func newLadder() *Ladder { return &Ladder{root: -1} }

// Add appends inputs to the ladder. They are encoded by the next AtMost,
// together with every other input added since the previous one.
func (l *Ladder) Add(lits ...sat.Lit) {
	l.lits = append(l.lits, lits...)
	l.pending += len(lits)
}

// Width returns the number of counter outputs the ladder has, counting
// pending inputs as encoded: the largest bound it enforces without
// widening, plus one. It is the widest width asked for, capped at the
// input count.
func (l *Ladder) Width() int { return min(l.want, len(l.lits)) }

// AtMost returns an assumption literal enforcing that at most bound of
// the inputs are true, growing the ladder first when bound is at or past
// its width and encoding any pending inputs. Both add clauses, so s must
// be at decision level 0 (any time between solves). Only a bound at or
// above the input count needs no constraint; it yields LitUndef, which
// the caller drops from its assumptions. A negative bound is clamped to
// 0, the tightest enforceable constraint — AtMost is total so no
// caller-supplied bound can crash a shared server.
func (l *Ladder) AtMost(s *sat.Solver, bound int) sat.Lit {
	bound = max(bound, 0)
	l.grow(s, bound+1)
	if bound >= len(l.lits) {
		return sat.LitUndef
	}
	return l.nodes[l.root].out[bound].Neg() // ¬(≥ bound+1)
}

// grow records width as asked for, merges the pending inputs into the
// tree and widens every node to the ladder's width.
func (l *Ladder) grow(s *sat.Solver, width int) {
	l.want = max(l.want, width)
	if l.pending > 0 {
		batch := l.balanced(len(l.lits)-l.pending, len(l.lits))
		l.pending = 0
		if l.root >= 0 {
			batch = l.merge(l.root, batch)
		}
		l.root = batch
	}
	if l.root >= 0 {
		l.growNode(s, l.root, l.Width())
	}
}

// balanced adds the leaves of lits[lo:hi] and the merge nodes of a
// balanced tree over them, all without outputs beyond the leaves', and
// returns the tree's root.
func (l *Ladder) balanced(lo, hi int) int {
	if hi-lo == 1 {
		l.nodes = append(l.nodes, ladderNode{left: -1, right: -1, size: 1, out: l.lits[lo:hi:hi]})
		return len(l.nodes) - 1
	}
	mid := lo + (hi-lo)/2
	left := l.balanced(lo, mid)
	return l.merge(left, l.balanced(mid, hi))
}

// merge adds a merge node over two subtrees, without outputs yet.
func (l *Ladder) merge(left, right int) int {
	l.nodes = append(l.nodes, ladderNode{left: left, right: right, size: l.nodes[left].size + l.nodes[right].size})
	return len(l.nodes) - 1
}

// growNode widens the subtree rooted at node i to width outputs and
// returns its outputs. Children grow first, then the node allocates its
// new outputs and adds only the sum clauses left_i ∧ right_j → out_{i+j}
// for the new counts i+j. Growing a fresh balanced tree therefore emits
// exactly the variable order and clause order of a one-shot build.
func (l *Ladder) growNode(s *sat.Solver, i, width int) []sat.Lit {
	n := &l.nodes[i]
	old, w := len(n.out), min(width, n.size)
	if n.left < 0 || w <= old {
		return n.out // a leaf, or saturated: the subtree already counts to w
	}
	left := l.growNode(s, n.left, width)
	right := l.growNode(s, n.right, width)
	for range w - old {
		n.out = append(n.out, sat.PosLit(s.NewVar()))
	}
	out := n.out
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

// clone returns an independent copy of the ladder, so a forked session
// that adds inputs or grows never writes into the original's tree.
func (l *Ladder) clone() *Ladder {
	c := *l
	c.lits = slices.Clip(l.lits)
	c.nodes = slices.Clone(l.nodes)
	for i := range c.nodes {
		if c.nodes[i].left >= 0 {
			c.nodes[i].out = slices.Clone(c.nodes[i].out)
		}
	}
	return &c
}
