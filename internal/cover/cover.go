// Package cover solves the set-covering problem underlying the paper's
// third diagnosis approach (SCDiagnose, Figure 4): given the candidate
// sets C1..Cm produced by path tracing, find all irredundant hitting sets
// C* of size at most k — sets containing at least one element of every Ci
// such that no element can be removed (conditions (a), (b), (c)).
//
// There is one engine, Enumerate: the O(|I|^k) backtracking search that
// Table 1 prices COV at, run by increasing cover size over the quotient
// of the universe by interchangeable elements. Elements that hit exactly
// the same sets form one class. An irredundant cover holds at most one
// member of a class (a second member hits the same sets, so it is
// redundant), and irredundancy and size depend only on which classes are
// chosen; so the search runs over classes and expands every class cover
// into the product of its classes' members.
//
// The paper solved its covering instances with zchaff. A SAT enumerator
// over one selection variable per class was slower than this search on
// every COV cell measured (README's COV entry has the numbers), so the
// search is the only engine.
//
// EnumerateImplicit reuses the search as the master of an implicit
// hitting set loop: the family is not given up front but revealed one
// set at a time by a check of each candidate, and one Enumerate pass per
// size suffices. The SAT-based diagnosis engine `cegar` runs it with
// per-test conflicts as the sets.
//
// Note that a "hitting set" view is used throughout: elements hit sets.
// This matches the paper's formulation of condition (a).
package cover

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"
)

// Problem is a set-covering instance over integer elements (gate IDs).
type Problem struct {
	// Sets are the candidate sets Ci, each non-empty for solvability and
	// strictly ascending (NewProblem makes them so).
	Sets [][]int
}

// NewProblem copies the given sets into a problem, sorting each set and
// dropping duplicate elements within it.
func NewProblem(sets [][]int) *Problem {
	p := &Problem{Sets: make([][]int, len(sets))}
	for i, s := range sets {
		out := slices.Clone(s)
		slices.Sort(out)
		p.Sets[i] = slices.Compact(out)
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
	MaxK         int // largest cover size (required, >= 1)
	MaxSolutions int // cap on enumerated covers (0 = unlimited)
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
	// Classes is the number of classes of interchangeable elements the
	// search ran over, and Nodes the number of search nodes it visited.
	Classes, Nodes int
}

// classes partitions the universe into classes of interchangeable
// elements — those hitting exactly the same sets — and returns, per
// class, its members and the indices of the sets they hit. Classes are
// ordered by their smallest member and members ascend. The sets must be
// sorted and free of duplicates, as NewProblem leaves them.
func (p *Problem) classes() (members, hits [][]int) {
	total := 0
	for _, set := range p.Sets {
		total += len(set)
	}
	// Merge the sorted sets: u lists the elements ascending, the sets hit
	// by u[i] are flat[off[i]:off[i+1]] (ascending), and at[j] is the
	// index in u of the j-th element of the concatenated sets.
	flat, u, at := make([]int, 0, total), make([]int, 0, total), make([]int, total)
	off, head := []int{0}, make([]int, len(p.Sets))
	for {
		e, found := 0, false
		for si, set := range p.Sets {
			if h := head[si]; h < len(set) && (!found || set[h] < e) {
				e, found = set[h], true
			}
		}
		if !found {
			break
		}
		base := 0
		for si, set := range p.Sets {
			if h := head[si]; h < len(set) && set[h] == e {
				flat = append(flat, si)
				at[base+h] = len(u)
				head[si]++
			}
			base += len(set)
		}
		u = append(u, e)
		off = append(off, len(flat))
	}

	// Refine one partition of u by each set in turn: the members of a
	// part that lie in the set move to a new part, so two elements end in
	// one part exactly when they hit the same sets. At most 1+total parts
	// are numbered.
	part := make([]int, len(u))
	splitBy, next := make([]int, total+1), make([]int, total+1)
	parts, base := 1, 0
	for si, set := range p.Sets {
		for _, i := range at[base : base+len(set)] {
			if c := part[i]; splitBy[c] != si+1 {
				splitBy[c], next[c] = si+1, parts
				parts++
			}
			part[i] = next[part[i]]
		}
		base += len(set)
	}

	// Number the classes by smallest member, then lay the members out
	// class by class in one slab.
	class := splitBy[:parts] // part -> class+1
	clear(class)
	size := append(next[:0], 0) // size[c+1] counts class c, then prefix-sums it
	for i, c := range part {
		if class[c] == 0 {
			hits = append(hits, flat[off[i]:off[i+1]:off[i+1]])
			size = append(size, 0)
			class[c] = len(hits)
		}
		part[i] = class[c] - 1
		size[class[c]]++
	}
	members = make([][]int, len(hits))
	elems := make([]int, len(u))
	for c := range members {
		size[c+1] += size[c]
		members[c] = elems[size[c]:size[c]]
	}
	for i, c := range part {
		members[c] = append(members[c], u[i])
	}
	return members, hits
}

// Enumerate lists every irredundant cover of size <= MaxK, smaller covers
// first. It deepens by size: for k = 1..MaxK it searches for the class
// covers of exactly k classes, branching on the live classes of the
// uncovered set that has the fewest. In the branch for the i-th class of
// that set the classes before it are excluded, so each class cover is
// reached on exactly one path and none needs deduplicating. Irredundancy
// (every chosen class is the only hitter of some set) is decided from
// per-set hit counts: a branch dies as soon as a chosen class loses its
// last private set, since hits only grow below it.
//
// Each class cover is expanded as soon as it is found into the product
// of its classes' members, in lexicographic order of the member choices
// (classes by smallest member, the last class varying fastest).
// MaxSolutions counts expanded covers, so a capped result holds every
// cover smaller than the largest size it returns; reaching the cap, even
// exactly, reports Complete=false. Ctx is polled every 256 nodes.
func Enumerate(p *Problem, opts Options) (*Result, error) {
	start := time.Now()
	if opts.MaxK < 1 {
		return nil, fmt.Errorf("cover: MaxK must be >= 1")
	}
	for i, s := range p.Sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("cover: set %d is empty; no cover exists", i)
		}
		for j := 1; j < len(s); j++ {
			if s[j-1] >= s[j] {
				return nil, fmt.Errorf("cover: set %d is not strictly ascending (build problems with NewProblem)", i)
			}
		}
	}
	members, hits := p.classes()
	m := len(p.Sets)
	perSet := make([]int, 3*m)
	s := &search{
		opts:     opts,
		start:    start,
		members:  members,
		hits:     hits,
		bySet:    make([][]int, m),
		cnt:      perSet[:m],
		owner:    perSet[m : 2*m],
		live:     perSet[2*m:],
		priv:     make([]int, len(members)),
		excluded: make([]bool, len(members)),
		chosen:   make([]int, 0, opts.MaxK),
		sorted:   make([]int, 0, opts.MaxK),
		pick:     make([]int, opts.MaxK),
		res:      &Result{Complete: true, Classes: len(members)},
	}
	for c, sets := range hits {
		for _, si := range sets {
			s.bySet[si] = append(s.bySet[si], c)
			s.live[si]++
		}
	}
	for s.k = 1; s.k <= opts.MaxK; s.k++ {
		s.cut = false
		if !s.node() || !s.cut {
			break // stopped, or no branch reached the size bound: done
		}
	}
	s.res.Nodes = s.nodes
	return s.res, nil
}

// search is the state of one Enumerate call. Per set it keeps how many
// chosen classes hit it (cnt), the XOR of their indices (owner, which is
// the sole hitter when cnt is 1) and how many classes hitting it are not
// excluded (live); per class, how many sets it alone hits (priv).
type search struct {
	opts    Options
	start   time.Time
	members [][]int // per class, its elements ascending
	hits    [][]int // per class, the sets it hits ascending
	bySet   [][]int // per set, the classes hitting it ascending

	cnt, owner, live []int
	priv             []int
	dead             int // chosen classes with no private set
	excluded         []bool
	exStack          []int // excluded classes, in order, for restoring
	chosen           []int

	k     int  // the size searched for
	cut   bool // some branch was cut at size k with a set uncovered
	nodes int
	res   *Result

	sorted, pick, slab []int // expansion scratch
}

// node searches below the current choice and reports whether the
// enumeration may go on (false once the cap is reached or Ctx is done).
func (s *search) node() bool {
	if s.nodes&255 == 0 && s.opts.Ctx != nil && s.opts.Ctx.Err() != nil {
		s.res.Complete = false
		return false
	}
	s.nodes++
	best := -1
	for si, n := range s.cnt {
		if n == 0 && (best < 0 || s.live[si] < s.live[best]) {
			best = si
		}
	}
	if best < 0 {
		// Covered. With fewer than k classes the cover was emitted at
		// its own size, and every superset of it is redundant.
		if len(s.chosen) < s.k {
			return true
		}
		return s.emit()
	}
	if s.live[best] == 0 {
		return true
	}
	if len(s.chosen) == s.k {
		s.cut = true
		return true
	}
	mark := len(s.exStack)
	ok := true
	for _, c := range s.bySet[best] {
		if s.excluded[c] {
			continue
		}
		if s.push(c) {
			ok = s.node()
		}
		s.pop(c)
		// Later siblings must not choose c; once some uncovered set has
		// no live class left, none of them can cover it.
		if !ok || !s.exclude(c) {
			break
		}
	}
	for _, c := range s.exStack[mark:] {
		s.excluded[c] = false
		for _, si := range s.hits[c] {
			s.live[si]++
		}
	}
	s.exStack = s.exStack[:mark]
	return ok
}

// push chooses class c and reports whether every chosen class still
// alone hits some set.
func (s *search) push(c int) bool {
	s.chosen = append(s.chosen, c)
	for _, si := range s.hits[c] {
		switch s.cnt[si] {
		case 0:
			s.priv[c]++
		case 1:
			o := s.owner[si]
			if s.priv[o]--; s.priv[o] == 0 {
				s.dead++
			}
		}
		s.cnt[si]++
		s.owner[si] ^= c
	}
	return s.dead == 0
}

// pop undoes push(c).
func (s *search) pop(c int) {
	s.chosen = s.chosen[:len(s.chosen)-1]
	for _, si := range s.hits[c] {
		s.owner[si] ^= c
		s.cnt[si]--
		switch s.cnt[si] {
		case 0:
			s.priv[c]--
		case 1:
			o := s.owner[si]
			if s.priv[o] == 0 {
				s.dead--
			}
			s.priv[o]++
		}
	}
}

// exclude bars class c from the rest of the current node's subtree and
// reports whether every uncovered set it hits keeps a live class.
func (s *search) exclude(c int) bool {
	s.excluded[c] = true
	s.exStack = append(s.exStack, c)
	alive := true
	for _, si := range s.hits[c] {
		if s.live[si]--; s.live[si] == 0 && s.cnt[si] == 0 {
			alive = false
		}
	}
	return alive
}

// emit appends the element covers of the chosen class cover and reports
// whether enumeration may go on (false once the cap is reached).
func (s *search) emit() bool {
	res := s.res
	if len(res.Covers) == 0 {
		res.First = time.Since(s.start)
	}
	cls := append(s.sorted[:0], s.chosen...)
	slices.Sort(cls)
	n := 1
	for _, c := range cls {
		n *= len(s.members[c])
	}
	if s.opts.MaxSolutions > 0 {
		n = min(n, s.opts.MaxSolutions-len(res.Covers))
	}
	k := len(cls)
	if len(s.slab) < n*k {
		s.slab = make([]int, max(n*k, 1024))
	}
	res.Covers = slices.Grow(res.Covers, n)
	pick := s.pick[:k]
	clear(pick)
	for range n {
		cov := s.slab[:k:k]
		s.slab = s.slab[k:]
		for i, c := range cls {
			cov[i] = s.members[c][pick[i]]
		}
		slices.Sort(cov)
		res.Covers = append(res.Covers, cov)
		for i := k - 1; i >= 0; i-- { // advance, last class fastest
			if pick[i]++; pick[i] < len(s.members[cls[i]]) {
				break
			}
			pick[i] = 0
		}
	}
	if s.opts.MaxSolutions > 0 && len(res.Covers) >= s.opts.MaxSolutions {
		res.Complete = false
		return false
	}
	return true
}

// Check answers one candidate of EnumerateImplicit. It reports whether d
// hits every set of the hidden family (valid) and, when it does not,
// returns one set of the family that d misses. A false ok stops the
// enumeration, which then reports Complete=false.
type Check func(d []int) (missed []int, valid, ok bool)

// EnumerateImplicit lists the minimal hitting sets of size <= MaxK of a
// set family it is never given whole: the implicit hitting set scheme,
// with check as the oracle that confirms a candidate or reveals one set
// the candidate misses. Candidates are checked one at a time.
//
// The empty family's only minimal hitting set is ∅, so ∅ is checked
// first and, when valid, is the answer. Then, for k = 1..MaxK, one pass
// runs Enumerate once over the sets known when the pass starts and
// checks its covers of size k in search order, skipping every cover that
// misses a set revealed during the pass. No pass restarts. This is exact
// by the following invariant.
//
// At the start of pass k, every minimal hitting set of size < k of the
// known sets is confirmed. A confirmed set hits every set revealed later
// (the family is fixed), so a minimal hitting set H of size k of the
// enlarged family is one of the family at the start of the pass: a
// smaller hitting set inside H of the start family would contain a
// confirmed one, which hits the enlarged family too. So the pass
// proposes H, and the check confirms it, since no set H misses exists.
// After pass MaxK, every minimal hitting set of size <= MaxK of the
// revealed sets is confirmed. A valid D of size <= MaxK hits them all,
// so it contains a confirmed set; if no element of D can be dropped, D
// is that set. The confirmed sets are exactly the irredundant valid
// sets of size <= MaxK.
//
// Covers come out smallest first. MaxSolutions caps them, and reaching
// the cap, even exactly, reports Complete=false. Ctx is polled before
// every check and inside Enumerate. Nodes sums the passes' search
// nodes. A revealed empty set means no hitting set exists and ends the
// enumeration.
func EnumerateImplicit(opts Options, check Check) (*Result, error) {
	start := time.Now()
	if opts.MaxK < 1 {
		return nil, fmt.Errorf("cover: MaxK must be >= 1")
	}
	res := &Result{Complete: true}
	var sets [][]int // revealed, sorted and free of duplicates
	// confirm checks d and reports whether the enumeration goes on.
	confirm := func(d []int) bool {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			res.Complete = false
			return false
		}
		missed, valid, ok := check(d)
		if !ok {
			res.Complete = false
			return false
		}
		if !valid {
			set := slices.Compact(slices.Sorted(slices.Values(missed)))
			sets = append(sets, set)
			return len(set) > 0
		}
		if len(res.Covers) == 0 {
			res.First = time.Since(start)
		}
		res.Covers = append(res.Covers, d)
		if opts.MaxSolutions > 0 && len(res.Covers) >= opts.MaxSolutions {
			res.Complete = false
			return false
		}
		return true
	}
	if !confirm([]int{}) || len(res.Covers) > 0 {
		return res, nil
	}
	for k := 1; k <= opts.MaxK; k++ {
		known := len(sets)
		pass, err := Enumerate(&Problem{Sets: sets[:known:known]}, Options{MaxK: k, Ctx: opts.Ctx})
		if err != nil {
			return nil, err
		}
		res.Nodes += pass.Nodes
		if !pass.Complete {
			res.Complete = false
			return res, nil
		}
		for _, d := range pass.Covers {
			if len(d) < k || missesAny(d, sets[known:]) {
				continue // confirmed in an earlier pass, or no longer a hitting set
			}
			if !confirm(d) {
				return res, nil
			}
		}
	}
	return res, nil
}

// missesAny reports whether the sorted set d misses some of the sorted
// sets.
func missesAny(d []int, sets [][]int) bool {
	for _, set := range sets {
		hit := false
		for _, e := range d {
			if _, hit = slices.BinarySearch(set, e); hit {
				break
			}
		}
		if !hit {
			return true
		}
	}
	return false
}
