package sat

// Clone returns an independent snapshot of the solver: the clause arena,
// the variable state (level-0 assignments, VSIDS activities, saved
// phases) and the top-level trail are copied, so the clone and the
// original diverge freely afterwards. With keepLearnts the
// learnt-clause database comes along too, seeding the clone's search
// with everything the original has already deduced; without it the clone
// restarts learning from scratch on a smaller database.
//
// Because the clause store is a flat arena and every cross-reference is
// an offset, the whole clause database — problem clauses, learnts,
// activities, LBDs — transfers with a single bulk copy, and the watch
// slab transfers with two (the per-literal range table and the flat
// data array). Clone is a handful of memcpys: no per-clause or
// per-literal allocation, no pointer remapping. That is what makes
// shard-worker forks and warm-session snapshots cheap enough to take
// per request.
//
// The clone starts with fresh budgets (no conflict cap, no deadline, no
// context) and zeroed Stats, so per-clone work is attributable —
// sharded enumeration reads each shard's solver effort directly off its
// clone.
//
// Clone must be called between Solve calls (decision level 0). Level-0
// reason entries are dropped rather than carried: conflict analysis
// never dereferences the reason of a level-0 variable (every use is
// guarded by level > 0), and top-level trail entries are never undone.
// Dropping them also keeps reduceDB's locked() check from pinning
// clauses in the clone that the pre-arena Clone would not have pinned.
func (s *Solver) Clone(keepLearnts bool) *Solver {
	if s.decisionLevel() != 0 {
		panic("sat: Clone above decision level 0")
	}
	n := &Solver{
		clauses:   append([]CRef(nil), s.clauses...),
		assigns:   append([]LBool(nil), s.assigns...),
		level:     append([]int32(nil), s.level...),
		reason:    make([]CRef, len(s.reason)),
		trail:     append([]Lit(nil), s.trail...),
		qhead:     s.qhead,
		activity:  append([]float64(nil), s.activity...),
		varInc:    s.varInc,
		polarity:  append([]bool(nil), s.polarity...),
		clauseInc: s.clauseInc,
		seen:      make([]byte, len(s.seen)),
		ok:        s.ok,

		ClauseMinimize: s.ClauseMinimize,
		PhaseSaving:    s.PhaseSaving,

		maxLearnts:    s.maxLearnts,
		simpDBAssigns: s.simpDBAssigns,

		// The flight recorder is shared, not copied: its ring is
		// written with atomics, so shard workers interleave their
		// events on the parent's timeline and one dump shows the whole
		// fan-out.
		rec: s.rec,
	}
	n.ca.data = append([]uint32(nil), s.ca.data...)
	n.ca.wasted = s.ca.wasted
	for i := range n.reason {
		n.reason[i] = CRefUndef
	}
	n.order = s.order.clone()
	if keepLearnts {
		n.learnts = append([]CRef(nil), s.learnts...)
	} else {
		// The learnt clauses stay behind as arena garbage in the clone;
		// compaction reclaims them once it is worth a pass.
		for _, cr := range s.learnts {
			n.ca.free(cr)
		}
	}

	// Watch lists: the slab transfers with two bulk copies (the range
	// table and the flat data array) — no per-literal work at all, the
	// last per-literal allocation Clone had. Keeping the original's
	// watch order also keeps its warm blockers. Without keepLearnts the
	// data array is re-laid per literal instead, filtering out watches
	// of the learnt clauses left behind as garbage.
	if keepLearnts {
		n.wslab.rng = append([]watchRange(nil), s.wslab.rng...)
		n.wslab.data = append([]watch(nil), s.wslab.data...)
		n.wslab.wasted = s.wslab.wasted
	} else {
		n.wslab.rng = make([]watchRange, len(s.wslab.rng))
		n.wslab.data = make([]watch, 0, len(s.wslab.data))
		for i := range s.wslab.rng {
			r := s.wslab.rng[i]
			start := uint32(len(n.wslab.data))
			for _, w := range s.wslab.data[r.off : r.off+r.n] {
				if !n.ca.learnt(w.cref()) {
					n.wslab.data = append(n.wslab.data, w)
				}
			}
			kept := uint32(len(n.wslab.data)) - start
			n.wslab.rng[i] = watchRange{off: start, n: kept, cap: kept}
		}
	}
	return n
}
