package sat

import (
	"math"
	"testing"
)

// oracleMax is the reference for varOrder: it scans the queued
// variables for the highest activity, keeping the lowest index on ties
// because the scan runs in index order and only a strictly higher
// activity replaces the current best. It returns -1 when none is queued.
func oracleMax(in []bool, act []float64) Var {
	best := Var(-1)
	for v, ok := range in {
		if ok && (best < 0 || act[v] > act[best]) {
			best = Var(v)
		}
	}
	return best
}

// checkTiers verifies the varOrder invariants: heap members carry
// positive activity and sit at their recorded positions in heap order,
// bitset members carry zero activity, and the counters match the bits.
func checkTiers(t *testing.T, o *varOrder, act []float64) {
	t.Helper()
	for i, v := range o.heap {
		if o.pos[v] != int32(i) {
			t.Fatalf("pos[%d] = %d, want %d", v, o.pos[v], i)
		}
		if !(act[v] > 0) {
			t.Fatalf("heap holds var %d with activity %v", v, act[v])
		}
		if i > 0 && heapLess(v, o.heap[(i-1)/2], act) {
			t.Fatalf("heap order broken at %d", i)
		}
	}
	n := 0
	for w, bitsW := range o.zero {
		for b := 0; b < 64; b++ {
			if bitsW&(1<<uint(b)) == 0 {
				continue
			}
			n++
			if v := Var(w<<6 | b); act[v] != 0 || w < o.zlo {
				t.Fatalf("bitset holds var %d (activity %v, word %d, cursor %d)", v, act[v], w, o.zlo)
			}
		}
	}
	if n != o.nzero {
		t.Fatalf("nzero = %d, bitset holds %d", o.nzero, n)
	}
}

// TestOrderMatchesOracle runs random operation sequences against the
// solver's decision queue and checks every pop against oracleMax. Bumps
// go through bumpVarBy, so activities tie often (small integer
// increments) and the occasional huge bump forces the global rescale,
// which collapses and underflows activities. Clone forks the solver mid-sequence; parent and
// clone then diverge under independent operations and must each keep
// matching their own oracle.
func TestOrderMatchesOracle(t *testing.T) {
	type inst struct {
		s  *Solver
		in []bool // variables queued in s.order
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xorshift(seed * 0x9E3779B97F4A7C15)
		n := 1 + rng.next(200)
		s := New()
		s.NewVars(n)
		queued := make([]bool, n)
		for i := range queued {
			queued[i] = true // NewVar queues every variable
		}
		insts := []*inst{{s, queued}}
		rescales := 0
		for step := 0; step < 3000; step++ {
			in := insts[rng.next(len(insts))]
			s, q := in.s, &in.s.order
			v := Var(rng.next(n))
			switch op := rng.next(100); {
			case op < 25:
				q.insert(v, s.activity)
				in.in[v] = true
			case op < 50:
				inc := s.varInc * float64(1+rng.next(3))
				if rng.next(50) == 0 {
					inc = 2e100
					rescales++
				}
				s.bumpVarBy(v, inc)
				s.varInc *= varDecay
			case op < 97:
				want := oracleMax(in.in, s.activity)
				if q.empty() != (want < 0) {
					t.Fatalf("seed %d step %d: empty() = %v, oracle has max %d", seed, step, q.empty(), want)
				}
				if want < 0 {
					continue
				}
				if got := q.removeMax(s.activity); got != want {
					t.Fatalf("seed %d step %d: removeMax = %d (act %v), oracle %d (act %v)",
						seed, step, got, s.activity[got], want, s.activity[want])
				}
				in.in[want] = false
			default:
				if len(insts) < 4 {
					c := s.Clone(true)
					insts = append(insts, &inst{c, append([]bool(nil), in.in...)})
				}
			}
			checkTiers(t, q, s.activity)
		}
		if rescales == 0 {
			t.Fatalf("seed %d: no rescale exercised", seed)
		}
	}
}

// drainOrder pops every variable from a copy of o.
func drainOrder(o *varOrder, act []float64) []Var {
	c := o.clone()
	var out []Var
	for !c.empty() {
		out = append(out, c.removeMax(act))
	}
	return out
}

// oracleOrder is the full pop order oracleMax implies over all n
// variables.
func oracleOrder(n int, act []float64) []Var {
	in := make([]bool, n)
	for i := range in {
		in[i] = true
	}
	var out []Var
	for v := oracleMax(in, act); v >= 0; v = oracleMax(in, act) {
		out = append(out, v)
		in[v] = false
	}
	return out
}

// TestOrderRescaleExact forces five global rescales through
// BumpActivity(v, 1e101). Each rescale multiplies every activity by
// 1e-100, so activities spread over many orders of magnitude first
// collapse into ties (neighbouring values that round to the same
// subnormal) and then underflow to zero. After every rescale the pop
// order must still be exactly the oracle's, and underflowed variables
// must have moved to the bitset tier.
func TestOrderRescaleExact(t *testing.T) {
	const n = 96
	s := New()
	s.NewVars(n)
	for v := 0; v < n; v += 2 {
		s.BumpActivity(Var(v), math.Pow(10, float64(v%60)-30))
	}
	// A lower index with the smaller of two adjacent activities: once
	// both round to the same subnormal, index order must decide.
	s.BumpActivity(1, 1e-10)
	s.BumpActivity(3, math.Nextafter(1e-10, 1))
	tied := false
	for round := 1; round <= 5; round++ {
		// Thousands of conflicts would grow the bump increment back
		// towards 1e100 between rescales; resetting it stands in for them.
		s.varInc = 1
		s.BumpActivity(Var(n-1-round), 1e101)
		if s.varInc != 1e-100 {
			t.Fatalf("round %d: no rescale (varInc %v)", round, s.varInc)
		}
		checkTiers(t, &s.order, s.activity)
		got, want := drainOrder(&s.order, s.activity), oracleOrder(n, s.activity)
		if len(got) != len(want) {
			t.Fatalf("round %d: drained %d vars, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: pop %d = %d, oracle %d", round, i, got[i], want[i])
			}
		}
		tied = tied || (s.activity[1] > 0 && s.activity[1] == s.activity[3])
	}
	if !tied {
		t.Fatal("adjacent activities never collapsed into a positive tie")
	}
	if s.activity[n-2] != 0 || s.order.nzero <= n/2 {
		t.Fatalf("no bumped activity underflowed: act[%d] = %v, %d vars in the bitset", n-2, s.activity[n-2], s.order.nzero)
	}
}

// TestBumpActivityIgnoresInvalidAmounts: a bump that is not positive and
// finite is a no-op, so activities stay non-negative and the decision
// order stays the oracle's.
func TestBumpActivityIgnoresInvalidAmounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		amount float64
		bumped bool
	}{
		{"positive", 2, true},
		{"smallest-subnormal", math.SmallestNonzeroFloat64, true},
		{"zero", 0, false},
		{"negative", -5, false},
		{"negative-zero", math.Copysign(0, -1), false},
		{"nan", math.NaN(), false},
		{"+inf", math.Inf(1), false},
		{"-inf", math.Inf(-1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			s.NewVars(4)
			s.BumpActivity(3, 1)
			s.BumpActivity(2, tc.amount)
			if tc.bumped != (s.activity[2] > 0) || s.activity[2] < 0 || math.IsNaN(s.activity[2]) {
				t.Fatalf("activity after BumpActivity(%v) = %v, bumped want %v", tc.amount, s.activity[2], tc.bumped)
			}
			checkTiers(t, &s.order, s.activity)
			got, want := drainOrder(&s.order, s.activity), oracleOrder(4, s.activity)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pop order %v, oracle %v", got, want)
				}
			}
		})
	}
}

// decideUntilConflict replays the decide loop over the main order —
// pop, decide with the saved phase, propagate — until every variable is
// assigned or propagation conflicts, then backtracks to level 0 and
// returns the decisions taken.
func decideUntilConflict(s *Solver, seq []Lit) []Lit {
	for {
		next := s.popDecision()
		if next == LitUndef {
			break
		}
		seq = append(seq, next)
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, CRefUndef)
		if s.propagate() != CRefUndef {
			break
		}
	}
	s.cancelUntil(0)
	return seq
}

// TestOrderCloneDecisionSequence: a clone decides exactly as its parent
// — the same variables in the same order with the same phases — and a
// full solve afterwards does the same work on both.
func TestOrderCloneDecisionSequence(t *testing.T) {
	s, _ := randomInstance(300, 0x2545F4914F6CDD1D)
	s.MaxConflicts = 300
	s.Solve()
	s.MaxConflicts = 0
	if s.order.nzero == 0 || len(s.order.heap) == 0 {
		t.Fatalf("search left one tier empty (heap %d, bitset %d); test exercises nothing", len(s.order.heap), s.order.nzero)
	}
	c := s.Clone(true)
	base := s.Stats
	a, b := decideUntilConflict(s, nil), decideUntilConflict(c, nil)
	if len(a) < 2 {
		t.Fatalf("only %d decisions replayed", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("parent took %d decisions, clone %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d: parent %v, clone %v", i, a[i], b[i])
		}
	}
	if sa, sb := s.Solve(), c.Solve(); sa != sb {
		t.Fatalf("parent %v, clone %v", sa, sb)
	}
	if got := s.Stats.Sub(base); got != c.Stats {
		t.Fatalf("clone search diverged:\nparent: %+v\n clone: %+v", got, c.Stats)
	}
}

// TestDecideBacktrackZeroAlloc: a steady-state cycle of decisions from
// both tiers, propagation, and a backtrack that reinserts every unwound
// variable allocates nothing.
func TestDecideBacktrackZeroAlloc(t *testing.T) {
	s, vars := layeredInstance(64, 4000, 0x9E3779B97F4A7C15)
	if st := s.Solve(); st != StatusSat {
		t.Skipf("instance not SAT: %v", st)
	}
	for i := 0; i < len(vars); i += 10 {
		s.BumpActivity(vars[i], float64(1+i%7))
	}
	seq := make([]Lit, 0, len(vars))
	cycle := func() { seq = decideUntilConflict(s, seq[:0]) }
	cycle() // warm: the trail reaches full length
	if len(seq) == 0 {
		t.Fatal("no decisions per cycle")
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("decide/backtrack cycle allocated %v allocs/op, want 0", allocs)
	}
}

// BenchmarkDecideOrder measures the decision queue alone on a
// diagnosis-shaped order: 40k variables, of which one in ten carries
// activity and the rest were never bumped. One op pops every variable
// and reinserts them in reverse, as one enumeration model's
// decide sweep and its backtrack to level 0 do.
func BenchmarkDecideOrder(b *testing.B) {
	const n = 40000
	act := make([]float64, n)
	rng := xorshift(0x9E3779B97F4A7C15)
	for v := 0; v < n; v += 10 {
		act[v] = float64(1 + rng.next(1000))
	}
	var o varOrder
	for v := 0; v < n; v++ {
		o.insert(Var(v), act)
	}
	popped := make([]Var, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		popped = popped[:0]
		for !o.empty() {
			popped = append(popped, o.removeMax(act))
		}
		for j := len(popped) - 1; j >= 0; j-- {
			o.insert(popped[j], act)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pop")
}
