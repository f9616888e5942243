// Package cover solves the set-covering problem underlying the paper's
// third diagnosis approach (SCDiagnose, Figure 4): given the candidate
// sets C1..Cm produced by path tracing, find all irredundant hitting sets
// C* of size at most k — sets containing at least one element of every Ci
// such that no element can be removed (conditions (a), (b), (c)).
//
// Two engines are provided: a SAT-based enumerator (the paper solved
// its covering instances with zchaff) and an explicit branch-and-bound
// enumerator, the independent oracle it is cross-checked against.
//
// The SAT enumerator works on the quotient of the universe by
// interchangeable elements: elements that hit exactly the same sets form
// one class and share one selection variable. An irredundant cover holds
// at most one member of a class (a second member hits the same sets, so
// it is redundant), and irredundancy and size depend only on which
// classes are chosen; so expanding every class cover into the product of
// its classes' members yields exactly the irredundant element covers,
// without the solver finding and refuting each permutation inside a
// class. Branch-and-bound stays on the uncompressed universe.
//
// Note that a "hitting set" view is used throughout: elements hit sets.
// This matches the paper's formulation of condition (a).
package cover

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

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
	// First is the time from the call to the first cover found (zero
	// when there is none): the "One" column of Table 2.
	First time.Duration
}

// classes partitions the universe into classes of interchangeable
// elements — those hitting exactly the same sets — and returns, per
// class, its members and the indices of the sets they hit. Classes are
// ordered by their smallest member and members ascend.
func (p *Problem) classes() (members, hits [][]int) {
	u := p.Universe()
	idx := make(map[int]int, len(u))
	for i, e := range u {
		idx[e] = i
	}
	// The sets hit by u[i] are flat[off[i]:off[i+1]], ascending.
	off := make([]int, len(u)+1)
	for _, set := range p.Sets {
		for _, e := range set {
			off[idx[e]+1]++
		}
	}
	for i := range u {
		off[i+1] += off[i]
	}
	flat := make([]int, off[len(u)])
	next := slices.Clone(off[:len(u)])
	for si, set := range p.Sets {
		for _, e := range set {
			i := idx[e]
			flat[next[i]] = si
			next[i]++
		}
	}
	sig := func(i int) []int { return flat[off[i]:off[i+1]] }

	// Sorting the elements by their sets makes each class a run, members
	// ascending; the runs are then put in order of their smallest member.
	order := make([]int, len(u))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := slices.Compare(sig(a), sig(b)); c != 0 {
			return c
		}
		return a - b
	})
	var runs [][]int
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && slices.Equal(sig(order[hi]), sig(order[lo])) {
			hi++
		}
		runs = append(runs, order[lo:hi])
		lo = hi
	}
	slices.SortFunc(runs, func(a, b []int) int { return a[0] - b[0] })
	members = make([][]int, len(runs))
	hits = make([][]int, len(runs))
	elems := make([]int, 0, len(u))
	for c, run := range runs {
		start := len(elems)
		for _, i := range run {
			elems = append(elems, u[i])
		}
		members[c] = elems[start:len(elems):len(elems)]
		hits[c] = sig(run[0])
	}
	return members, hits
}

// EnumerateSAT enumerates all irredundant covers of size <= MaxK with the
// incremental-SAT discipline of the paper: one selection variable per
// class of interchangeable elements, one clause per candidate set, a
// cardinality ladder, and for limits i = 1..MaxK all models projected
// onto the selection variables, blocking each found class cover and its
// supersets (Figure 4 via Figure 3's loop). Each class cover is expanded
// into the product of its classes' members, in lexicographic order of
// the member choices; MaxSolutions counts expanded covers, and a capped
// result holds every cover smaller than the largest size it returns.
func EnumerateSAT(p *Problem, opts Options) (*Result, error) {
	start := time.Now()
	if opts.MaxK < 1 {
		return nil, fmt.Errorf("cover: MaxK must be >= 1")
	}
	for i, s := range p.Sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("cover: set %d is empty; no cover exists", i)
		}
	}
	members, hits := p.classes()
	s := sat.New()
	s.MaxConflicts = opts.MaxConflicts
	lits := make([]sat.Lit, len(members))
	clauses := make([][]sat.Lit, len(p.Sets))
	for c, sets := range hits {
		lits[c] = sat.PosLit(s.NewVar())
		for _, si := range sets {
			clauses[si] = append(clauses[si], lits[c])
		}
	}
	for _, clause := range clauses {
		s.AddClause(clause...)
	}
	ladder := cnf.AddLadder(s, lits, opts.MaxK)

	res := &Result{Complete: true}
	var (
		chosen [][]int // members of each chosen class
		pick   []int   // odometer over the chosen classes
		slab   []int   // free backing space for the expanded covers
	)
	// expand appends the element covers of one class cover and reports
	// whether enumeration may go on (false once the cap is reached).
	expand := func(trueLits []sat.Lit) bool {
		if len(res.Covers) == 0 {
			res.First = time.Since(start)
		}
		chosen = chosen[:0]
		n := 1
		for _, l := range trueLits {
			m := members[indexOfLit(lits, l)]
			chosen = append(chosen, m)
			n *= len(m)
		}
		if opts.MaxSolutions > 0 {
			n = min(n, opts.MaxSolutions-len(res.Covers))
		}
		k := len(chosen)
		if len(slab) < n*k {
			slab = make([]int, max(n*k, 1024))
		}
		res.Covers = slices.Grow(res.Covers, n)
		pick = slices.Grow(pick[:0], k)[:k]
		clear(pick)
		for range n {
			cov := slab[:k:k]
			slab = slab[k:]
			for i, m := range chosen {
				cov[i] = m[pick[i]]
			}
			slices.Sort(cov)
			res.Covers = append(res.Covers, cov)
			for i := k - 1; i >= 0; i-- { // advance, last class fastest
				if pick[i]++; pick[i] < len(chosen[i]) {
					break
				}
				pick[i] = 0
			}
		}
		return opts.MaxSolutions == 0 || len(res.Covers) < opts.MaxSolutions
	}
	for k := 1; k <= opts.MaxK; k++ {
		if opts.MaxSolutions > 0 && len(res.Covers) >= opts.MaxSolutions {
			res.Complete = false
			return res, nil
		}
		var assumps []sat.Lit
		if l := ladder.AtMost(s, k); l != sat.LitUndef {
			assumps = []sat.Lit{l}
		}
		_, complete := s.EnumerateProjected(lits, sat.EnumOptions{Assumptions: assumps, Ctx: opts.Ctx}, expand)
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
	start := time.Now()
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
					if len(res.Covers) == 0 {
						res.First = time.Since(start)
					}
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
