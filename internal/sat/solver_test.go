package sat

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptySolverIsSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != StatusSat {
		t.Fatalf("empty solver: got %v, want SAT", got)
	}
}

func TestSingleUnit(t *testing.T) {
	s := New()
	v := s.NewVar()
	if !s.AddClause(PosLit(v)) {
		t.Fatal("unit clause rejected")
	}
	if got := s.Solve(); got != StatusSat {
		t.Fatalf("got %v, want SAT", got)
	}
	if s.Value(v) != LTrue {
		t.Fatalf("v = %v, want true", s.Value(v))
	}
}

func TestContradictoryUnits(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(PosLit(v))
	if s.AddClause(NegLit(v)) {
		t.Fatal("contradicting unit accepted")
	}
	if got := s.Solve(); got != StatusUnsat {
		t.Fatalf("got %v, want UNSAT", got)
	}
}

func TestEmptyClauseIsUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("empty clause accepted")
	}
	if got := s.Solve(); got != StatusUnsat {
		t.Fatalf("got %v, want UNSAT", got)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	v := s.NewVar()
	w := s.NewVar()
	if !s.AddClause(PosLit(v), NegLit(v)) {
		t.Fatal("tautology rejected")
	}
	if s.NumClauses() != 0 {
		t.Fatalf("tautology stored: %d clauses", s.NumClauses())
	}
	s.AddClause(PosLit(w))
	if got := s.Solve(); got != StatusSat {
		t.Fatalf("got %v, want SAT", got)
	}
}

func TestDuplicateLiteralsCollapse(t *testing.T) {
	s := New()
	v := s.NewVar()
	// (v | v) is a unit clause.
	s.AddClause(PosLit(v), PosLit(v))
	if got := s.Solve(); got != StatusSat || s.Value(v) != LTrue {
		t.Fatalf("got %v value %v", got, s.Value(v))
	}
}

func TestImplicationChain(t *testing.T) {
	// x0 & (x0->x1) & (x1->x2) ... forces all true.
	s := New()
	const n = 50
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(PosLit(vars[0]))
	for i := 0; i+1 < n; i++ {
		s.AddClause(NegLit(vars[i]), PosLit(vars[i+1]))
	}
	if got := s.Solve(); got != StatusSat {
		t.Fatalf("got %v", got)
	}
	for i, v := range vars {
		if s.Value(v) != LTrue {
			t.Fatalf("x%d = %v, want true", i, s.Value(v))
		}
	}
}

// pigeonhole builds PHP(n+1, n): n+1 pigeons in n holes — classically UNSAT.
func pigeonhole(pigeons, holes int) *Solver {
	s := New()
	at := make([][]Var, pigeons)
	for p := range at {
		at[p] = make([]Var, holes)
		for h := range at[p] {
			at[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		clause := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			clause[h] = PosLit(at[p][h])
		}
		s.AddClause(clause...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(at[p1][h]), NegLit(at[p2][h]))
			}
		}
	}
	return s
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		if got := pigeonhole(n+1, n).Solve(); got != StatusUnsat {
			t.Fatalf("PHP(%d,%d): got %v, want UNSAT", n+1, n, got)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	for n := 2; n <= 6; n++ {
		if got := pigeonhole(n, n).Solve(); got != StatusSat {
			t.Fatalf("PHP(%d,%d): got %v, want SAT", n, n, got)
		}
	}
}

// bruteForceSat checks satisfiability of a clause list by enumeration.
func bruteForceSat(numVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<uint(numVars); m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				bit := m>>uint(l.Var())&1 == 1
				if bit != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func randomClauses(rng *rand.Rand, numVars, numClauses, width int) [][]Lit {
	cs := make([][]Lit, numClauses)
	for i := range cs {
		c := make([]Lit, width)
		for j := range c {
			c[j] = MkLit(Var(rng.Intn(numVars)), rng.Intn(2) == 1)
		}
		cs[i] = c
	}
	return cs
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := 300
	if testing.Short() {
		cases = 60
	}
	for i := 0; i < cases; i++ {
		nv := 4 + rng.Intn(9)
		nc := 2 + rng.Intn(6*nv)
		clauses := randomClauses(rng, nv, nc, 3)
		s := New()
		s.NewVars(nv)
		okDB := true
		for _, c := range clauses {
			if !s.AddClause(c...) {
				okDB = false
				break
			}
		}
		var got Status
		if okDB {
			got = s.Solve()
		} else {
			got = StatusUnsat
		}
		want := StatusSat
		if !bruteForceSat(nv, clauses) {
			want = StatusUnsat
		}
		if got != want {
			t.Fatalf("case %d (%d vars, %d clauses): got %v, want %v", i, nv, nc, got, want)
		}
		if got == StatusSat && okDB {
			// The reported model must satisfy every clause.
			for ci, c := range clauses {
				sat := false
				for _, l := range c {
					if s.ValueLit(l) == LTrue {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("case %d: model violates clause %d", i, ci)
				}
			}
		}
	}
}

func TestSolveUnderAssumptions(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	// (a -> b), (b -> c)
	s.AddClause(NegLit(a), PosLit(b))
	s.AddClause(NegLit(b), PosLit(c))
	if got := s.Solve(PosLit(a), NegLit(c)); got != StatusUnsat {
		t.Fatalf("a & !c: got %v, want UNSAT", got)
	}
	if len(s.ConflictSet()) == 0 {
		t.Fatal("no failed-assumption core reported")
	}
	// The solver must remain usable and SAT without the bad assumption.
	if got := s.Solve(PosLit(a)); got != StatusSat {
		t.Fatalf("a alone: got %v, want SAT", got)
	}
	if s.Value(b) != LTrue || s.Value(c) != LTrue {
		t.Fatalf("implications not in model: b=%v c=%v", s.Value(b), s.Value(c))
	}
	// Assumptions must not persist.
	if got := s.Solve(NegLit(c)); got != StatusSat {
		t.Fatalf("!c alone: got %v, want SAT", got)
	}
	if s.Value(a) != LFalse {
		t.Fatalf("!c forces !a: a=%v", s.Value(a))
	}
}

// TestConflictSetClearedOnEveryEntry: a failed-assumption core belongs
// to the solve that computed it. A later Solve that returns at once —
// on a database already known UNSAT, an expired deadline or a cancelled
// context — must not leave the previous core readable.
func TestConflictSetClearedOnEveryEntry(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(NegLit(a), PosLit(b))
	s.AddClause(NegLit(a), NegLit(b))
	if got := s.Solve(PosLit(a)); got != StatusUnsat {
		t.Fatalf("under a: got %v, want UNSAT", got)
	}
	if cs := s.ConflictSet(); len(cs) != 1 || cs[0] != NegLit(a) {
		t.Fatalf("core under a: got %v, want [¬a]", cs)
	}
	s.AddClause(PosLit(b))
	if s.AddClause(NegLit(b)) {
		t.Fatal("contradictory units accepted")
	}
	if got := s.Solve(); got != StatusUnsat {
		t.Fatalf("UNSAT database: got %v, want UNSAT", got)
	}
	if cs := s.ConflictSet(); len(cs) != 0 {
		t.Fatalf("stale core after an assumption-free UNSAT solve: %v", cs)
	}

	for _, early := range []string{"deadline", "ctx"} {
		s := New()
		a, b := s.NewVar(), s.NewVar()
		s.AddClause(NegLit(a), PosLit(b))
		s.AddClause(NegLit(a), NegLit(b))
		if got := s.Solve(PosLit(a)); got != StatusUnsat || len(s.ConflictSet()) == 0 {
			t.Fatalf("%s: under a: got %v with core %v", early, got, s.ConflictSet())
		}
		var got Status
		if early == "deadline" {
			s.Deadline = time.Now().Add(-time.Second)
			got = s.Solve(PosLit(a))
		} else {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			got = s.SolveContext(ctx, PosLit(a))
		}
		if got != StatusUnknown {
			t.Fatalf("%s: got %v, want UNKNOWN", early, got)
		}
		if cs := s.ConflictSet(); len(cs) != 0 {
			t.Fatalf("%s: stale core after an early exit: %v", early, cs)
		}
	}
}

func TestAssumptionAlreadyTrueAtLevel0(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a))
	s.AddClause(NegLit(a), PosLit(b))
	if got := s.Solve(PosLit(a), PosLit(b)); got != StatusSat {
		t.Fatalf("got %v, want SAT", got)
	}
	if got := s.Solve(NegLit(a)); got != StatusUnsat {
		t.Fatalf("got %v, want UNSAT under !a", got)
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := New()
	vars := make([]Var, 4)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(PosLit(vars[0]), PosLit(vars[1]))
	if got := s.Solve(); got != StatusSat {
		t.Fatalf("step 1: %v", got)
	}
	s.AddClause(NegLit(vars[0]))
	if got := s.Solve(); got != StatusSat {
		t.Fatalf("step 2: %v", got)
	}
	if s.Value(vars[1]) != LTrue {
		t.Fatalf("x1 = %v, want true", s.Value(vars[1]))
	}
	s.AddClause(NegLit(vars[1]))
	if got := s.Solve(); got != StatusUnsat {
		t.Fatalf("step 3: %v, want UNSAT", got)
	}
}

func TestConflictBudgetReturnsUnknown(t *testing.T) {
	s := pigeonhole(9, 8) // hard enough to exceed a tiny budget
	s.MaxConflicts = 5
	if got := s.Solve(); got != StatusUnknown {
		t.Fatalf("got %v, want UNKNOWN under 5-conflict budget", got)
	}
	// Budget removed: must finish and stay correct.
	s.MaxConflicts = 0
	if got := s.Solve(); got != StatusUnsat {
		t.Fatalf("got %v, want UNSAT after budget lifted", got)
	}
}

func TestEnumerateSubsetBlockingYieldsMinimalOnly(t *testing.T) {
	// Unconstrained variables: the empty true-set is a model and blocks
	// every superset, so subset-blocking enumeration yields exactly it.
	s := New()
	s.NewVars(3)
	proj := []Lit{PosLit(0), PosLit(1), PosLit(2)}
	n, complete := s.EnumerateProjected(proj, EnumOptions{}, func(trueLits []Lit) bool {
		if len(trueLits) != 0 {
			t.Fatalf("unexpected non-empty minimal projection %v", trueLits)
		}
		return true
	})
	if !complete || n != 1 {
		t.Fatalf("n=%d complete=%v, want 1 complete", n, complete)
	}
}

func TestEnumerateAllModels(t *testing.T) {
	// 3 free variables, no constraints: 8 full models under exact blocking.
	s := New()
	vars := []Var{s.NewVar(), s.NewVar(), s.NewVar()}
	proj := []Lit{PosLit(vars[0]), PosLit(vars[1]), PosLit(vars[2])}
	seen := map[string]bool{}
	n, complete := s.EnumerateProjected(proj, EnumOptions{ExactBlocking: true}, func(trueLits []Lit) bool {
		key := ""
		for _, l := range trueLits {
			key += l.String() + ","
		}
		if seen[key] {
			t.Fatalf("duplicate projection %q", key)
		}
		seen[key] = true
		return true
	})
	if !complete || n != 8 {
		t.Fatalf("n=%d complete=%v, want 8 complete", n, complete)
	}
}

func TestEnumerateBlocksSupersets(t *testing.T) {
	// Enumerating by increasing cardinality with blocking must yield only
	// inclusion-minimal sets: with clause (a|b), minimal sets {a},{b}.
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	proj := []Lit{PosLit(a), PosLit(b)}
	var solutions [][]Lit
	_, complete := s.EnumerateProjected(proj, EnumOptions{}, func(trueLits []Lit) bool {
		cp := append([]Lit(nil), trueLits...)
		solutions = append(solutions, cp)
		return true
	})
	if !complete {
		t.Fatal("enumeration incomplete")
	}
	for _, sol := range solutions {
		if len(sol) > 1 {
			t.Fatalf("non-minimal projection %v enumerated", sol)
		}
	}
	if len(solutions) != 2 {
		t.Fatalf("got %d solutions, want 2 ({a},{b})", len(solutions))
	}
}

func TestEnumerateMaxSolutions(t *testing.T) {
	s := New()
	s.NewVars(4)
	proj := []Lit{PosLit(0), PosLit(1), PosLit(2), PosLit(3)}
	n, complete := s.EnumerateProjected(proj, EnumOptions{MaxSolutions: 3, ExactBlocking: true}, nil)
	if n != 3 || complete {
		t.Fatalf("n=%d complete=%v, want 3 incomplete", n, complete)
	}
}

func TestPolarityAndActivitySteering(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b)) // at least one true
	s.SetPolarity(a, true)
	s.SetPolarity(b, false)
	s.BumpActivity(a, 100)
	if got := s.Solve(); got != StatusSat {
		t.Fatalf("got %v", got)
	}
	if s.Value(a) != LTrue {
		t.Fatalf("steering ignored: a=%v", s.Value(a))
	}
	if s.Value(b) != LFalse {
		t.Fatalf("phase ignored: b=%v", s.Value(b))
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	in := `c sample
p cnf 3 3
1 -2 0
2 3 0
-1 0
`
	s, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Solve(); got != StatusSat {
		t.Fatalf("got %v", got)
	}
	// x1 false -> first clause forces !x2 -> second forces x3.
	if s.Value(0) != LFalse || s.Value(1) != LFalse || s.Value(2) != LTrue {
		t.Fatalf("model %v %v %v", s.Value(0), s.Value(1), s.Value(2))
	}
	var sb strings.Builder
	if err := s.WriteDIMACS(&sb); err != nil {
		t.Fatal(err)
	}
	s2, err := ParseDIMACS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Solve(); got != StatusSat {
		t.Fatalf("round-trip got %v", got)
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	bad := []string{
		"p cnf x 3\n1 0\n",
		"p dnf 3 3\n1 0\n",
		"p cnf 2 1\n1 z 0\n",
	}
	for _, in := range bad {
		if _, err := ParseDIMACS(strings.NewReader(in)); err == nil {
			t.Fatalf("no error for %q", in)
		}
	}
}

// TestRandomEquivalenceQuick drives the solver with testing/quick-shaped
// random instances, comparing to brute force and checking incremental
// consistency: adding the negation of a model as a clause must not break
// correctness.
func TestRandomEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 3 + rng.Intn(7)
		nc := 1 + rng.Intn(4*nv)
		clauses := randomClauses(rng, nv, nc, 2+rng.Intn(2))
		s := New()
		s.NewVars(nv)
		ok := true
		for _, c := range clauses {
			if !s.AddClause(c...) {
				ok = false
				break
			}
		}
		want := bruteForceSat(nv, clauses)
		if !ok {
			return !want
		}
		got := s.Solve() == StatusSat
		if got != want {
			return false
		}
		if got {
			// Block this model; solver must stay sound (model count drops by 1).
			var block []Lit
			for v := 0; v < nv; v++ {
				if s.Value(Var(v)) == LTrue {
					block = append(block, NegLit(Var(v)))
				} else {
					block = append(block, PosLit(Var(v)))
				}
			}
			s.AddClause(block...)
			again := s.Solve() == StatusSat
			count := countModels(nv, clauses)
			if again != (count > 1) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150}
	if testing.Short() {
		cfg.MaxCount = 40
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func countModels(numVars int, clauses [][]Lit) int {
	count := 0
	for m := 0; m < 1<<uint(numVars); m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				bit := m>>uint(l.Var())&1 == 1
				if bit != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

func TestStatsAccumulate(t *testing.T) {
	s := pigeonhole(6, 5)
	if got := s.Solve(); got != StatusUnsat {
		t.Fatalf("got %v", got)
	}
	if s.Stats.Conflicts == 0 || s.Stats.Decisions == 0 || s.Stats.Propagations == 0 {
		t.Fatalf("stats not collected: %+v", s.Stats)
	}
}

func TestLitHelpers(t *testing.T) {
	v := Var(5)
	p := PosLit(v)
	n := NegLit(v)
	if p.Var() != v || n.Var() != v {
		t.Fatal("Var round-trip failed")
	}
	if p.Sign() || !n.Sign() {
		t.Fatal("Sign wrong")
	}
	if p.Neg() != n || n.Neg() != p {
		t.Fatal("Neg wrong")
	}
	if MkLit(v, false) != p || MkLit(v, true) != n {
		t.Fatal("MkLit wrong")
	}
	if p.String() != "6" || n.String() != "-6" {
		t.Fatalf("String: %s %s", p, n)
	}
}

// TestSetBudgetResetsStaleDeadline: a deadline left over from an earlier
// enumeration round must fail fast, and SetBudget must clear it so the
// next round gets a fresh budget (the long-lived-session discipline).
func TestSetBudgetResetsStaleDeadline(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(PosLit(v))
	s.SetBudget(0, time.Nanosecond)
	time.Sleep(time.Millisecond)
	if got := s.Solve(); got != StatusUnknown {
		t.Fatalf("expired deadline: got %v, want UNKNOWN", got)
	}
	s.SetBudget(0, 0)
	if !s.Deadline.IsZero() {
		t.Fatal("SetBudget(0, 0) did not clear the deadline")
	}
	if got := s.Solve(); got != StatusSat {
		t.Fatalf("after budget reset: got %v, want SAT", got)
	}
	s.SetBudget(7, time.Hour)
	if s.MaxConflicts != 7 || s.Deadline.IsZero() {
		t.Fatal("SetBudget did not install the new budget")
	}
	if got := s.Solve(); got != StatusSat {
		t.Fatalf("with generous budget: got %v, want SAT", got)
	}
}

// TestEnumerateBlockExtraRetractsRounds: blocking clauses carrying a
// round-guard literal must stop constraining once the guard is asserted
// false, so a second round over the same projection sees the full
// solution space again.
func TestEnumerateBlockExtraRetractsRounds(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	proj := []Lit{PosLit(a), PosLit(b), PosLit(c)}
	s.AddClause(proj...) // at least one true

	countRound := func() int {
		guard := PosLit(s.NewVar())
		n, complete := s.EnumerateProjected(proj, EnumOptions{
			Assumptions: []Lit{guard},
			BlockExtra:  []Lit{guard.Neg()},
		}, nil)
		if !complete {
			t.Fatal("round incomplete")
		}
		s.AddClause(guard.Neg()) // retire the round
		return n
	}
	first := countRound()
	if first != 3 {
		// Subset blocking over {a,b,c} with "at least one true" yields
		// exactly the three singletons.
		t.Fatalf("round 1: got %d solutions, want 3", first)
	}
	if second := countRound(); second != first {
		t.Fatalf("round 2 after retraction: got %d solutions, want %d", second, first)
	}
	// An unretracted round keeps blocking: a third round sharing round
	// 2's guard literal would see nothing — emulate by reusing blocking
	// without a guard.
	n, complete := s.EnumerateProjected(proj, EnumOptions{}, nil)
	if !complete || n != 3 {
		t.Fatalf("unguarded round: got %d (complete=%v), want 3", n, complete)
	}
	if n, _ = s.EnumerateProjected(proj, EnumOptions{}, nil); n != 0 {
		t.Fatalf("permanent blocking should persist: got %d solutions, want 0", n)
	}
}
