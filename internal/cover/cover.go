// Package cover solves the set-covering problem underlying the paper's
// third diagnosis approach (SCDiagnose, Figure 4): given the candidate
// sets C1..Cm produced by path tracing, find all irredundant hitting sets
// C* of size at most k — sets containing at least one element of every Ci
// such that no element can be removed (conditions (a), (b), (c)).
//
// Three engines are provided: a SAT-based enumerator (the paper solved
// its covering instances with zchaff), an explicit branch-and-bound
// enumerator used for cross-checking, and a greedy heuristic for the
// "one solution" timing column of Table 2.
//
// Note that a "hitting set" view is used throughout: elements hit sets.
// This matches the paper's formulation of condition (a).
package cover

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// appendInt appends the decimal form of v to dst without allocating.
func appendInt(dst []byte, v int) []byte {
	return strconv.AppendInt(dst, int64(v), 10)
}

// Problem is a set-covering instance over integer elements (gate IDs).
type Problem struct {
	Sets [][]int // the candidate sets Ci; must be non-empty for solvability
}

// NewProblem copies the given sets into a problem, deduplicating
// elements within each set.
func NewProblem(sets [][]int) *Problem {
	p := &Problem{Sets: make([][]int, len(sets))}
	for i, s := range sets {
		seen := make(map[int]bool, len(s))
		var out []int
		for _, e := range s {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
		sort.Ints(out)
		p.Sets[i] = out
	}
	return p
}

// Universe returns the sorted distinct elements across all sets.
func (p *Problem) Universe() []int {
	seen := make(map[int]bool)
	var u []int
	for _, s := range p.Sets {
		for _, e := range s {
			if !seen[e] {
				seen[e] = true
				u = append(u, e)
			}
		}
	}
	sort.Ints(u)
	return u
}

// Covers reports whether the element set sel (sorted or not) hits every set.
func (p *Problem) Covers(sel []int) bool {
	in := make(map[int]bool, len(sel))
	for _, e := range sel {
		in[e] = true
	}
	for _, s := range p.Sets {
		hit := false
		for _, e := range s {
			if in[e] {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// Irredundant reports whether sel is a cover none of whose elements can
// be dropped (the paper's condition (b)).
func (p *Problem) Irredundant(sel []int) bool {
	if !p.Covers(sel) {
		return false
	}
	for i := range sel {
		reduced := make([]int, 0, len(sel)-1)
		reduced = append(reduced, sel[:i]...)
		reduced = append(reduced, sel[i+1:]...)
		if p.Covers(reduced) {
			return false
		}
	}
	return true
}

// Options bounds enumeration.
type Options struct {
	MaxK         int   // largest cover size (required, >= 1)
	MaxSolutions int   // cap on enumerated covers (0 = unlimited)
	MaxConflicts int64 // SAT budget per stage (0 = unlimited)
	// Ctx, when non-nil, cancels the enumeration cooperatively
	// (Result.Complete reports false).
	Ctx context.Context
}

// Result carries the enumerated covers and completeness information.
type Result struct {
	Covers   [][]int // sorted element sets, enumeration order
	Complete bool    // solution space exhausted within budgets
}

// EnumerateSAT enumerates all irredundant covers of size <= MaxK with the
// incremental-SAT discipline of the paper: one selection variable per
// universe element, one clause per candidate set, a cardinality ladder,
// and for limits i = 1..MaxK all models projected onto the selection
// variables, blocking each found cover (Figure 4 via Figure 3's loop).
func EnumerateSAT(p *Problem, opts Options) (*Result, error) {
	if opts.MaxK < 1 {
		return nil, fmt.Errorf("cover: MaxK must be >= 1")
	}
	for i, s := range p.Sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("cover: set %d is empty; no cover exists", i)
		}
	}
	universe := p.Universe()
	s := sat.New()
	s.MaxConflicts = opts.MaxConflicts
	vars := make(map[int]sat.Var, len(universe))
	lits := make([]sat.Lit, len(universe))
	for i, e := range universe {
		v := s.NewVar()
		vars[e] = v
		lits[i] = sat.PosLit(v)
	}
	for _, set := range p.Sets {
		clause := make([]sat.Lit, len(set))
		for i, e := range set {
			clause[i] = sat.PosLit(vars[e])
		}
		s.AddClause(clause...)
	}
	ladder := cnf.AddLadder(s, lits, opts.MaxK)

	res := &Result{Complete: true}
	for k := 1; k <= opts.MaxK; k++ {
		var assumps []sat.Lit
		if l := ladder.AtMost(k); l != sat.LitUndef {
			assumps = []sat.Lit{l}
		}
		remaining := 0
		if opts.MaxSolutions > 0 {
			remaining = opts.MaxSolutions - len(res.Covers)
			if remaining <= 0 {
				res.Complete = false
				return res, nil
			}
		}
		_, complete := s.EnumerateProjected(lits, sat.EnumOptions{Assumptions: assumps, Ctx: opts.Ctx, MaxSolutions: remaining}, func(trueLits []sat.Lit) bool {
			cov := make([]int, len(trueLits))
			for i, l := range trueLits {
				cov[i] = universe[indexOfLit(lits, l)]
			}
			sort.Ints(cov)
			res.Covers = append(res.Covers, cov)
			return true
		})
		if !complete {
			res.Complete = false
			return res, nil
		}
	}
	return res, nil
}

func indexOfLit(lits []sat.Lit, l sat.Lit) int {
	// lits are the positive literals of consecutively allocated variables,
	// so the variable gap gives the index directly.
	return int(l.Var() - lits[0].Var())
}

// EnumerateBB enumerates all irredundant covers of size <= MaxK with an
// explicit backtracking search (the O(|I|^k) procedure of Table 1): pick
// the first uncovered set, branch on each of its elements, prune by
// size. Used to cross-check the SAT enumerator and as the classic
// simulation-based-community implementation.
//
// Coverage state is maintained incrementally: an element-to-sets index
// is built once and per-set hit counts are adjusted as the search pushes
// and pops elements, so a search node costs O(|sets|) instead of
// re-scanning the selection against every set, and the leaf-level
// irredundancy check (every chosen element uniquely hits some set) needs
// no per-candidate slices or maps.
func EnumerateBB(p *Problem, opts Options) (*Result, error) {
	if opts.MaxK < 1 {
		return nil, fmt.Errorf("cover: MaxK must be >= 1")
	}
	for i, s := range p.Sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("cover: set %d is empty; no cover exists", i)
		}
	}
	res := &Result{Complete: true}
	setsOf := make(map[int][]int) // element -> indices of sets containing it
	for i, set := range p.Sets {
		for _, e := range set {
			setsOf[e] = append(setsOf[e], i)
		}
	}
	hits := make([]int, len(p.Sets)) // per set, how many selected elements hit it
	seen := make(map[string]bool)
	sel := make([]int, 0, opts.MaxK)
	cov := make([]int, 0, opts.MaxK) // reused sorted-copy buffer
	var key []byte                   // reused dedup-key buffer
	nodes := 0
	var rec func() bool
	rec = func() bool {
		if opts.MaxSolutions > 0 && len(res.Covers) >= opts.MaxSolutions {
			res.Complete = false
			return false
		}
		// Poll the cancellation context every few hundred search nodes so
		// it never dominates the per-node cost.
		if nodes++; opts.Ctx != nil && nodes&255 == 0 && opts.Ctx.Err() != nil {
			res.Complete = false
			return false
		}
		// Find first uncovered set.
		uncovered := -1
		for i := range hits {
			if hits[i] == 0 {
				uncovered = i
				break
			}
		}
		if uncovered == -1 {
			cov = append(cov[:0], sel...)
			sort.Ints(cov)
			// Irredundant iff dropping any element would uncover a set,
			// i.e. every element is the unique hitter of some set. The
			// branching rule only ever picks elements of uncovered sets,
			// so sel never holds duplicates and the hit counts decide
			// this exactly (conditions (a) and (b)).
			irredundant := true
			for _, e := range cov {
				unique := false
				for _, si := range setsOf[e] {
					if hits[si] == 1 {
						unique = true
						break
					}
				}
				if !unique {
					irredundant = false
					break
				}
			}
			if irredundant {
				key = key[:0]
				for _, e := range cov {
					key = appendInt(key, e)
					key = append(key, ',')
				}
				if !seen[string(key)] {
					seen[string(key)] = true
					res.Covers = append(res.Covers, append([]int(nil), cov...))
				}
			}
			return true
		}
		if len(sel) == opts.MaxK {
			return true // size bound: prune
		}
		for _, e := range p.Sets[uncovered] {
			sel = append(sel, e)
			for _, si := range setsOf[e] {
				hits[si]++
			}
			ok := rec()
			for _, si := range setsOf[e] {
				hits[si]--
			}
			sel = sel[:len(sel)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	rec()
	// Order deterministically by (size, lexicographic).
	sort.Slice(res.Covers, func(i, j int) bool {
		a, b := res.Covers[i], res.Covers[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	})
	return res, nil
}

// Greedy returns one (not necessarily minimal-cardinality) irredundant
// cover quickly: repeatedly pick the element hitting the most uncovered
// sets, then strip redundant picks. Used for the "One" columns.
func Greedy(p *Problem) ([]int, error) {
	for i, s := range p.Sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("cover: set %d is empty; no cover exists", i)
		}
	}
	covered := make([]bool, len(p.Sets))
	var sel []int
	for {
		remaining := 0
		for _, c := range covered {
			if !c {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		gain := make(map[int]int)
		for i, set := range p.Sets {
			if covered[i] {
				continue
			}
			for _, e := range set {
				gain[e]++
			}
		}
		best, bestGain := -1, 0
		for e, g := range gain {
			if g > bestGain || (g == bestGain && (best == -1 || e < best)) {
				best, bestGain = e, g
			}
		}
		sel = append(sel, best)
		for i, set := range p.Sets {
			if covered[i] {
				continue
			}
			for _, e := range set {
				if e == best {
					covered[i] = true
					break
				}
			}
		}
	}
	// Strip redundant elements (later picks can subsume earlier ones).
	sort.Ints(sel)
	for i := 0; i < len(sel); {
		reduced := make([]int, 0, len(sel)-1)
		reduced = append(reduced, sel[:i]...)
		reduced = append(reduced, sel[i+1:]...)
		if p.Covers(reduced) {
			sel = reduced
		} else {
			i++
		}
	}
	return sel, nil
}
