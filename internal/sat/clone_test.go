package sat

import (
	"context"
	"testing"
	"time"
)

// randomInstance builds a deterministic below-phase-transition 3-SAT
// instance (same generator family as the solver benchmark).
func randomInstance(nVars int, seed uint64) (*Solver, []Var) {
	s := New()
	vars := make([]Var, nVars)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	state := seed
	next := func(mod int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(mod))
	}
	for i := 0; i < 36*nVars/10; i++ {
		a, b, c := vars[next(nVars)], vars[next(nVars)], vars[next(nVars)]
		s.AddClause(MkLit(a, next(2) == 0), MkLit(b, next(2) == 0), MkLit(c, next(2) == 0))
	}
	return s, vars
}

func TestCloneAgreesWithOriginal(t *testing.T) {
	s, vars := randomInstance(120, 0x2545F4914F6CDD1D)
	clone := s.Clone(false)

	// Same verdict on the bare instance and under assumption probes.
	if a, b := s.Solve(), clone.Solve(); a != b {
		t.Fatalf("bare solve: original %v, clone %v", a, b)
	}
	for i := 0; i < 10; i++ {
		assumps := []Lit{MkLit(vars[i], i%2 == 0), MkLit(vars[i+20], i%3 == 0)}
		if a, b := s.Solve(assumps...), clone.Solve(assumps...); a != b {
			t.Fatalf("assumps %v: original %v, clone %v", assumps, a, b)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	clone := s.Clone(false)

	// Contradicting the clone must leave the original satisfiable.
	clone.AddClause(NegLit(a))
	clone.AddClause(NegLit(b))
	if st := clone.Solve(); st != StatusUnsat {
		t.Fatalf("clone should be UNSAT, got %v", st)
	}
	if st := s.Solve(); st != StatusSat {
		t.Fatalf("original should stay SAT, got %v", st)
	}
	// And fresh variables on the clone must not leak into the original.
	clone2 := s.Clone(false)
	clone2.NewVar()
	if clone2.NumVars() != s.NumVars()+1 {
		t.Fatalf("clone NewVar: %d vs original %d", clone2.NumVars(), s.NumVars())
	}
}

func TestCloneLearnts(t *testing.T) {
	s, _ := randomInstance(200, 0x9E3779B97F4A7C15)
	if st := s.Solve(); st == StatusUnknown {
		t.Fatal("unexpected budget expiry")
	}
	if s.NumLearnts() == 0 {
		t.Skip("instance solved without retained learnt clauses")
	}
	with := s.Clone(true)
	without := s.Clone(false)
	if with.NumLearnts() != s.NumLearnts() {
		t.Fatalf("keepLearnts clone has %d learnts, original %d", with.NumLearnts(), s.NumLearnts())
	}
	if without.NumLearnts() != 0 {
		t.Fatalf("bare clone carries %d learnt clauses", without.NumLearnts())
	}
	// Clone statistics start at zero for per-shard attribution.
	if with.Stats != (Stats{}) {
		t.Fatalf("clone statistics not fresh: %+v", with.Stats)
	}
	// Both clones remain correct solvers.
	if a, b := with.Solve(), without.Solve(); a != StatusSat || b != StatusSat {
		t.Fatalf("clone verdicts after solve: %v / %v", a, b)
	}
}

func TestCloneAfterTopLevelFacts(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a))            // unit fact
	s.AddClause(NegLit(a), PosLit(b)) // propagates b at level 0
	s.AddClause(NegLit(b), PosLit(c))
	clone := s.Clone(false)
	if st := clone.Solve(); st != StatusSat {
		t.Fatalf("clone of top-level-propagated solver: %v", st)
	}
	for _, v := range []Var{a, b, c} {
		if clone.Value(v) != LTrue {
			t.Fatalf("var %d should be forced true in the clone", v)
		}
	}
	if st := clone.Solve(NegLit(c)); st != StatusUnsat {
		t.Fatal("clone lost the implication chain")
	}
}

func TestSolveContextCancelled(t *testing.T) {
	s, _ := randomInstance(120, 0xD1B54A32D192ED03)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st := s.SolveContext(ctx); st != StatusUnknown {
		t.Fatalf("cancelled context: want StatusUnknown, got %v", st)
	}
	// The solver stays usable afterwards.
	if st := s.SolveContext(context.Background()); st == StatusUnknown {
		t.Fatal("solver unusable after cancelled solve")
	}
}

func TestEnumerateCancelMidEnumeration(t *testing.T) {
	// 8 free variables, no constraints: 256 exact-blocking models. Cancel
	// from inside the callback after the third; the enumeration must stop
	// at the next loop iteration and report incompleteness.
	s := New()
	proj := make([]Lit, 8)
	for i := range proj {
		proj[i] = PosLit(s.NewVar())
	}
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	n, complete := s.EnumerateProjected(proj, EnumOptions{Ctx: ctx, ExactBlocking: true}, func([]Lit) bool {
		if time.Since(start) > time.Minute {
			t.Fatal("cancellation did not surface")
		}
		cancel()
		return true
	})
	if complete {
		t.Fatal("cancelled enumeration reported complete")
	}
	if n != 1 {
		t.Fatalf("enumeration continued after cancel: %d models", n)
	}
}
