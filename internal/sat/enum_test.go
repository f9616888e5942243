package sat

import (
	"context"
	"strings"
	"testing"
)

// TestEnumerateCtxPostModel: cancellation observed between model
// emission and blocking must stop the enumeration without growing the
// clause database past the cancellation point.
func TestEnumerateCtxPostModel(t *testing.T) {
	s := buildRandom(40, 120, 3, 0x13579BDF2468ACE0)
	proj := make([]Lit, 8)
	for i := range proj {
		proj[i] = PosLit(Var(i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	before := -1
	n, complete := s.EnumerateProjected(proj, EnumOptions{Ctx: ctx}, func([]Lit) bool {
		before = s.NumClauses()
		cancel() // consumer observes shutdown mid-model but does not abort
		return true
	})
	if n != 1 || complete {
		t.Fatalf("n=%d complete=%v, want n=1 incomplete", n, complete)
	}
	if got := s.NumClauses(); got != before {
		t.Errorf("clause DB grew after cancellation: %d -> %d", before, got)
	}
}

// TestExactBlockingBlockExtra: exact blocking combined with a guarded
// round must enumerate every distinct projected assignment exactly
// once, and retiring the guard must retract all of the round's blocking
// clauses — the same projections reappear in a fresh round.
func TestExactBlockingBlockExtra(t *testing.T) {
	s := New()
	s.NewVars(6)
	s.AddClause(PosLit(3), PosLit(4)) // keep the instance non-trivial
	proj := []Lit{PosLit(0), PosLit(1), PosLit(2)}
	guard := PosLit(s.NewVar())
	round := func(g Lit) map[string]int {
		seen := map[string]int{}
		n, complete := s.EnumerateProjected(proj, EnumOptions{
			Assumptions:   []Lit{g},
			BlockExtra:    []Lit{g.Neg()},
			ExactBlocking: true,
		}, func([]Lit) bool {
			var sb strings.Builder
			for _, l := range proj {
				if s.ValueLit(l) == LTrue {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
			seen[sb.String()]++
			return true
		})
		if !complete {
			t.Fatal("guarded exact round incomplete")
		}
		if n != 8 {
			t.Fatalf("enumerated %d projections, want all 8", n)
		}
		return seen
	}
	first := round(guard)
	for p, c := range first {
		if c != 1 {
			t.Fatalf("projection %s enumerated %d times", p, c)
		}
	}
	s.AddClause(guard.Neg()) // retire: all 8 blocking clauses retract
	guard2 := PosLit(s.NewVar())
	second := round(guard2)
	if len(second) != 8 {
		t.Fatalf("retired round still blocks: %d projections in round 2", len(second))
	}
}

// TestEnumerateEmptyProjection: a model whose projected true-set is
// empty yields an empty subset-blocking clause, which empties the
// solution space — the edge where enumeration must report complete with
// the solver left unsatisfiable. The search decides with the saved
// (initially negative) phase, so the very first model already has the
// empty true-set and the enumeration stops after one model.
func TestEnumerateEmptyProjection(t *testing.T) {
	s := New()
	s.NewVars(3)
	s.AddClause(PosLit(1), PosLit(2))
	n, complete := s.EnumerateProjected([]Lit{PosLit(0)}, EnumOptions{}, nil)
	if n != 1 || !complete {
		t.Fatalf("n=%d complete=%v, want n=1 complete", n, complete)
	}
	if s.Okay() {
		t.Error("solver still ok after blocking the empty projection")
	}
	if n2, c2 := s.EnumerateProjected([]Lit{PosLit(0)}, EnumOptions{}, nil); n2 != 0 || !c2 {
		t.Errorf("re-enumeration after empty block: n=%d complete=%v, want 0,true", n2, c2)
	}
}

// TestEnumerateSteadyStateZeroAlloc: with the solver-resident blocking
// and projection buffers, a steady-state guarded enumeration round
// allocates nothing — the idiom of the propagate/analyze zero-alloc
// tests applied to the whole enumeration loop. Guards are pre-created
// and warm-up rounds grow the arena, watch slab and buffers to
// capacity first.
func TestEnumerateSteadyStateZeroAlloc(t *testing.T) {
	s := buildRandom(40, 100, 3, 0xFEDCBA9876543210)
	proj := make([]Lit, 10)
	for i := range proj {
		proj[i] = PosLit(Var(i))
	}
	guards := make([]Lit, 12)
	for i := range guards {
		guards[i] = PosLit(s.NewVar())
	}
	next := 0
	assumps := make([]Lit, 1)
	blockExtra := make([]Lit, 1)
	keep := func([]Lit) bool { return true }
	round := func() {
		g := guards[next]
		next++
		assumps[0], blockExtra[0] = g, g.Neg()
		opts := EnumOptions{
			Assumptions:  assumps,
			BlockExtra:   blockExtra,
			MaxSolutions: 30,
		}
		s.EnumerateProjected(proj, opts, keep)
		s.AddClause(g.Neg()) // retire the round
	}
	for i := 0; i < 8; i++ { // warm every buffer to steady state
		round()
	}
	allocs := testing.AllocsPerRun(1, round)
	if allocs != 0 {
		t.Errorf("steady-state enumeration allocated %v allocs/round, want 0", allocs)
	}
}
