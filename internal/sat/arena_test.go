package sat

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestArenaAllocAccessors(t *testing.T) {
	var ca clauseArena
	c1 := ca.alloc([]Lit{PosLit(0), NegLit(1), PosLit(2)}, false)
	c2 := ca.alloc([]Lit{NegLit(3), PosLit(4)}, true)
	if ca.size(c1) != 3 || ca.size(c2) != 2 {
		t.Fatalf("sizes: %d %d", ca.size(c1), ca.size(c2))
	}
	if ca.learnt(c1) || !ca.learnt(c2) {
		t.Fatalf("learnt flags: %v %v", ca.learnt(c1), ca.learnt(c2))
	}
	want := []Lit{PosLit(0), NegLit(1), PosLit(2)}
	for i, lw := range ca.lits(c1) {
		if Lit(lw) != want[i] {
			t.Fatalf("lit %d: %v != %v", i, Lit(lw), want[i])
		}
	}
	ca.setAct(c2, 3.5)
	ca.setLBD(c2, 7)
	if ca.act(c2) != 3.5 || ca.lbd(c2) != 7 {
		t.Fatalf("act/lbd round-trip: %v %v", ca.act(c2), ca.lbd(c2))
	}
	// Header writes on c2 must not disturb c1.
	if ca.size(c1) != 3 || ca.act(c1) != 0 || ca.lbd(c1) != 0 {
		t.Fatal("neighbour clause disturbed")
	}
	// Shrinking accounts the freed words as garbage.
	ca.setSize(c1, 2)
	if ca.size(c1) != 2 || ca.wasted != 1 {
		t.Fatalf("after shrink: size=%d wasted=%d", ca.size(c1), ca.wasted)
	}
	ca.free(c2)
	if ca.wasted != 1+clauseHdr+2 {
		t.Fatalf("after free: wasted=%d", ca.wasted)
	}
}

func TestWatchEncoding(t *testing.T) {
	w := mkWatch(CRef(12345), PosLit(7))
	if w.bin() || w.cref() != 12345 || w.blocker != PosLit(7) {
		t.Fatalf("long watch round-trip: %+v", w)
	}
	bw := mkBinWatch(CRef(98765), NegLit(3))
	if !bw.bin() || bw.cref() != 98765 || bw.blocker != NegLit(3) {
		t.Fatalf("binary watch round-trip: %+v", bw)
	}
}

// TestCompactionPreservesDatabase forces a compaction and checks the
// problem database is unchanged (same DIMACS rendering) and the solver
// still answers correctly afterwards.
func TestCompactionPreservesDatabase(t *testing.T) {
	s, vars := randomInstance(150, 0x2545F4914F6CDD1D)
	if st := s.Solve(); st != StatusSat {
		t.Skipf("instance not SAT: %v", st)
	}
	// Pin a few model facts so simplify deletes satisfied clauses.
	for i := 0; i < 40; i++ {
		v := vars[i]
		s.AddClause(MkLit(v, s.Value(v) == LFalse))
	}
	if st := s.Solve(); st != StatusSat {
		t.Fatalf("after pinning model facts: %v", st)
	}
	var before strings.Builder
	if err := s.WriteDIMACS(&before); err != nil {
		t.Fatal(err)
	}
	wastedBefore := s.ca.wasted
	lenBefore := len(s.ca.data)
	s.compact()
	if s.ca.wasted != 0 {
		t.Fatalf("compaction left wasted=%d", s.ca.wasted)
	}
	if len(s.ca.data) != lenBefore-int(wastedBefore) {
		t.Fatalf("compaction reclaimed %d words, want %d", lenBefore-len(s.ca.data), wastedBefore)
	}
	s.rebuildWatches()
	var after strings.Builder
	if err := s.WriteDIMACS(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatal("compaction changed the clause database")
	}
	if st := s.Solve(); st != StatusSat {
		t.Fatalf("solver broken after compaction: %v", st)
	}
	// And it keeps working under pressure.
	if st := s.Solve(MkLit(vars[50], s.Value(vars[50]) == LTrue)); st == StatusUnknown {
		t.Fatal("budget hit")
	}
}

// TestPropagateZeroAlloc: steady-state unit propagation must not touch
// the heap. The instance is solved once; replaying the saved model under
// one agreeing assumption then drives decide+propagate with zero
// allocations.
func TestPropagateZeroAlloc(t *testing.T) {
	s, vars := randomInstance(400, 0x9E3779B97F4A7C15)
	if st := s.Solve(); st != StatusSat {
		t.Skipf("instance not SAT: %v", st)
	}
	assumps := make([]Lit, 1)
	i := 0
	// Warm up every rotation target so watch lists reach steady state.
	for range vars {
		assumps[0] = MkLit(vars[i%len(vars)], s.Value(vars[i%len(vars)]) == LFalse)
		s.Solve(assumps...)
		i++
	}
	allocs := testing.AllocsPerRun(200, func() {
		v := vars[i%len(vars)]
		i++
		assumps[0] = MkLit(v, s.Value(v) == LFalse)
		if s.Solve(assumps...) != StatusSat {
			t.Fatal("replay conflicted")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state propagate allocated %v allocs/op, want 0", allocs)
	}
}

// TestComputeLBDZeroAlloc: the level-stamp buffer replaces the per-call
// map — zero allocations per learnt clause.
func TestComputeLBDZeroAlloc(t *testing.T) {
	s := New()
	s.NewVars(64)
	lits := make([]Lit, 20)
	for i := range lits {
		lits[i] = PosLit(Var(i * 3))
		s.level[i*3] = int32(i % 7)
	}
	s.computeLBD(lits) // warm the stamp buffer
	if got := s.computeLBD(lits); got != 7 {
		t.Fatalf("computeLBD = %d, want 7", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if s.computeLBD(lits) != 7 {
			t.Fatal("wrong LBD")
		}
	})
	if allocs != 0 {
		t.Fatalf("computeLBD allocated %v allocs/op, want 0", allocs)
	}
}

// TestRemoveSatisfiedNoRealloc: level-0 simplification filters the
// clause list in place — no fresh slices, no per-clause copies (the
// pre-arena version reallocated both lists on every call).
func TestRemoveSatisfiedNoRealloc(t *testing.T) {
	s, _ := randomInstance(200, 0xD1B54A32D192ED03)
	if st := s.Solve(); st != StatusSat {
		t.Skipf("instance not SAT: %v", st)
	}
	s.clauses = s.removeSatisfied(s.clauses) // warm
	allocs := testing.AllocsPerRun(50, func() {
		s.clauses = s.removeSatisfied(s.clauses)
		s.learnts = s.removeSatisfied(s.learnts)
	})
	if allocs != 0 {
		t.Fatalf("removeSatisfied allocated %v allocs/op, want 0", allocs)
	}
}

// TestReduceDBNoRealloc: learnt-database reduction (sort, in-place keep
// filter, compaction, watch rebuild) runs allocation-free once the
// solver-resident scratch buffers are warm.
func TestReduceDBNoRealloc(t *testing.T) {
	s := pigeonhole(9, 8)
	s.MaxConflicts = 3000
	if st := s.Solve(); st == StatusSat {
		t.Fatal("PHP cannot be SAT")
	}
	if s.NumLearnts() < 50 {
		t.Skipf("only %d learnts retained", s.NumLearnts())
	}
	s.reduceDB() // warm scratch + compaction buffers
	allocs := testing.AllocsPerRun(20, func() {
		s.reduceDB()
	})
	if allocs != 0 {
		t.Fatalf("reduceDB allocated %v allocs/op, want 0", allocs)
	}
}

// TestCloneThenDiverge: a forked worker shares no mutable state with its
// origin. The original is driven through heavy post-fork work (solves,
// clause addition, database reduction, compaction); the clone must then
// behave exactly like a pristine twin that never forked.
func TestCloneThenDiverge(t *testing.T) {
	build := func() *Solver {
		s, _ := randomInstance(150, 0x165667B19E3779F9)
		return s
	}
	orig := build()
	twin := build()
	clone := orig.Clone(false)

	// Mutate the original hard: solve (learnts, saved phases), pin facts
	// (level-0 trail + simplify), reduce and compact (arena relocation).
	if st := orig.Solve(); st == StatusUnknown {
		t.Fatal("budget hit")
	}
	if orig.ok {
		var block []Lit
		for v := 0; v < 20; v++ {
			block = append(block, MkLit(Var(v), orig.Value(Var(v)) == LTrue))
		}
		orig.AddClause(block...)
		orig.Solve()
		orig.maxLearnts = 10
		orig.MaxConflicts = 500
		orig.Solve()
		if orig.ok {
			orig.compact()
			orig.rebuildWatches()
		}
	}

	// The clone must now replay exactly the pristine twin's search.
	a, b := clone.Solve(), twin.Solve()
	if a != b {
		t.Fatalf("clone %v vs pristine twin %v", a, b)
	}
	if clone.Stats != twin.Stats {
		t.Fatalf("clone search diverged from pristine twin:\n clone: %+v\n  twin: %+v", clone.Stats, twin.Stats)
	}
	if a == StatusSat {
		for v := 0; v < clone.NumVars(); v++ {
			if clone.Value(Var(v)) != twin.Value(Var(v)) {
				t.Fatalf("model differs at var %d", v)
			}
		}
	}
}

// TestCloneMidSessionMatchesTwin: a clone taken mid-session, after a
// solve has warmed the activities, saved phases, learnt database and
// restart bookkeeping, must search exactly as its parent would have from
// the fork point. The clone is compared against an identically-built
// twin that never forked.
func TestCloneMidSessionMatchesTwin(t *testing.T) {
	build := func() *Solver {
		s, _ := randomInstance(150, 0x165667B19E3779F9)
		return s
	}
	orig, twin := build(), build()
	if a, b := orig.Solve(), twin.Solve(); a != b {
		t.Fatalf("identical builds diverged: %v vs %v", a, b)
	}
	if orig.Stats.Conflicts == 0 {
		t.Fatal("no conflicts before the fork; test exercises nothing")
	}
	clone := orig.Clone(true)

	// Mutate the original hard post-fork.
	var block []Lit
	for v := 0; v < 20; v++ {
		block = append(block, MkLit(Var(v), orig.Value(Var(v)) == LTrue))
	}
	orig.AddClause(block...)
	orig.MaxConflicts = 500
	orig.Solve()

	// Drive the clone and the twin through the identical incremental
	// workload: with the search state carried over, their searches —
	// and so their work-counter deltas — must match exactly.
	workload := func(s *Solver) []Status {
		var sts []Status
		for round := 0; round < 5; round++ {
			st := s.Solve()
			sts = append(sts, st)
			if st != StatusSat || !s.Okay() {
				break
			}
			var bl []Lit
			for v := 0; v < 15; v++ {
				bl = append(bl, MkLit(Var(v), s.Value(Var(v)) == LTrue))
			}
			if !s.AddClause(bl...) {
				break
			}
		}
		return sts
	}
	twinBase := twin.Stats
	cs, ts := workload(clone), workload(twin)
	if fmt.Sprint(cs) != fmt.Sprint(ts) {
		t.Fatalf("status sequences diverged: clone %v vs twin %v", cs, ts)
	}
	if clone.Stats != twin.Stats.Sub(twinBase) {
		t.Fatalf("clone search diverged from the fork point:\n clone: %+v\n  twin: %+v",
			clone.Stats, twin.Stats.Sub(twinBase))
	}
}

// TestWatchSlabRebuildZeroAlloc: re-laying every watch list after a
// compaction pass must reuse the slab's backing array — strict zero
// allocations once warm.
func TestWatchSlabRebuildZeroAlloc(t *testing.T) {
	s := pigeonhole(9, 8)
	s.MaxConflicts = 3000
	if st := s.Solve(); st == StatusSat {
		t.Fatal("PHP cannot be SAT")
	}
	s.compact()
	s.rebuildWatches() // warm: slab data sized for the full database
	allocs := testing.AllocsPerRun(20, func() {
		s.compact()
		s.rebuildWatches()
	})
	if allocs != 0 {
		t.Fatalf("compact+rebuildWatches allocated %v allocs/op, want 0", allocs)
	}
	// The rebuild must reclaim all relocation waste.
	if s.wslab.wasted != 0 {
		t.Fatalf("rebuild left %d wasted watch words", s.wslab.wasted)
	}
}

// TestCloneConcurrentWorkers: shard-style forks solving concurrently
// must be fully independent — the race detector turns any shared mutable
// state into a failure.
func TestCloneConcurrentWorkers(t *testing.T) {
	s, vars := randomInstance(200, 0xC2B2AE3D27D4EB4F)
	if st := s.Solve(); st == StatusUnknown {
		t.Fatal("budget hit")
	}
	const workers = 8
	results := make([]Status, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		clone := s.Clone(w%2 == 0)
		wg.Add(1)
		go func(w int, c *Solver) {
			defer wg.Done()
			assump := MkLit(vars[w*3], w%2 == 0)
			results[w] = c.Solve(assump)
			// Keep mutating: add clauses, re-solve, reduce.
			c.AddClause(MkLit(vars[w+40], true), MkLit(vars[w+41], false))
			c.maxLearnts = 5
			c.MaxConflicts = 200
			c.Solve()
		}(w, clone)
	}
	wg.Wait()
	for w, st := range results {
		if st == StatusUnknown {
			t.Fatalf("worker %d hit a budget", w)
		}
	}
	// The original is untouched and still agrees with a fresh solve.
	if st := s.Solve(); st != StatusSat && st != StatusUnsat {
		t.Fatalf("original solver damaged: %v", st)
	}
}
