package sat

import (
	"context"
	"math/rand"
	"testing"
)

// enumInstance is a small random CNF with a projection over its first
// variables, small enough to enumerate every assignment by brute force.
type enumInstance struct {
	nVars   int
	clauses [][]Lit
	proj    []Lit
}

func randomEnumInstance(rng *rand.Rand) enumInstance {
	nv := 5 + rng.Intn(9)
	inst := enumInstance{nVars: nv}
	for i, n := 0, nv+rng.Intn(3*nv); i < n; i++ {
		inst.clauses = append(inst.clauses, randomClauses(rng, nv, 1, 2+rng.Intn(3))[0])
	}
	for i, p := 0, 2+rng.Intn(5); i < p && i < nv; i++ {
		inst.proj = append(inst.proj, PosLit(Var(i)))
	}
	return inst
}

// projections returns the brute-force set of projected true-sets (as
// bitmasks over proj) of the instance's models.
func (inst enumInstance) projections() map[uint]bool {
	out := map[uint]bool{}
	for m := 0; m < 1<<uint(inst.nVars); m++ {
		if inst.satisfies(m) {
			out[uint(m)&(1<<uint(len(inst.proj))-1)] = true
		}
	}
	return out
}

func (inst enumInstance) satisfies(m int) bool {
	for _, c := range inst.clauses {
		sat := false
		for _, l := range c {
			if (m>>uint(l.Var())&1 == 1) != l.Sign() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// minimal keeps the sets of fs that contain no other set of fs.
func minimal(fs map[uint]bool) map[uint]bool {
	out := map[uint]bool{}
	for f := range fs {
		keep := true
		for g := range fs {
			if g != f && g&f == g {
				keep = false
				break
			}
		}
		if keep {
			out[f] = true
		}
	}
	return out
}

// enumSolver loads inst into a fresh solver followed by a bound
// variable per limit k < len(proj) (assumed true, it forbids every
// k+1 projected literals from being true together) and, when guarded,
// a round guard. It returns the per-limit bound literals and the guard
// (LitUndef when unguarded).
func (inst enumInstance) enumSolver(guarded bool) (*Solver, []Lit, Lit) {
	s := New()
	s.NewVars(inst.nVars)
	for _, c := range inst.clauses {
		s.AddClause(c...)
	}
	p := len(inst.proj)
	bounds := make([]Lit, p)
	for k := range bounds {
		bounds[k] = PosLit(s.NewVar())
		for set := uint(0); set < 1<<uint(p); set++ {
			if popcount(set) != k+1 {
				continue
			}
			clause := []Lit{bounds[k].Neg()}
			for i, l := range inst.proj {
				if set>>uint(i)&1 == 1 {
					clause = append(clause, l.Neg())
				}
			}
			s.AddClause(clause...)
		}
	}
	guard := LitUndef
	if guarded {
		guard = PosLit(s.NewVar())
	}
	return s, bounds, guard
}

func popcount(x uint) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// roundOptions returns the enumeration options of a guarded or plain
// round with the given extra assumption (LitUndef for none).
func roundOptions(guard, extra Lit, exact bool) EnumOptions {
	opts := EnumOptions{ExactBlocking: exact}
	if guard != LitUndef {
		opts.Assumptions = append(opts.Assumptions, guard)
		opts.BlockExtra = []Lit{guard.Neg()}
	}
	if extra != LitUndef {
		opts.Assumptions = append(opts.Assumptions, extra)
	}
	return opts
}

func maskOf(s *Solver, proj []Lit) uint {
	var m uint
	for i, l := range proj {
		if s.ValueLit(l) == LTrue {
			m |= 1 << uint(i)
		}
	}
	return m
}

// TestEnumerateHeldTrailMatchesBruteForce: enumeration that keeps the
// model's trail across each block must report exactly what brute force
// predicts. Exact blocking yields every projection once; subset
// blocking staged by an increasing size limit (the paper's Figure 3
// ladder) yields exactly the minimal true-sets, each once. Both hold
// with and without a round guard in the blocking clauses.
func TestEnumerateHeldTrailMatchesBruteForce(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 200
	}
	for seed := 1; seed <= seeds; seed++ {
		inst := randomEnumInstance(rand.New(rand.NewSource(int64(seed))))
		all := inst.projections()
		for _, guarded := range []bool{false, true} {
			s, bounds, guard := inst.enumSolver(guarded)
			got := map[uint]int{}
			_, complete := s.EnumerateProjected(inst.proj, roundOptions(guard, LitUndef, true), func([]Lit) bool {
				got[maskOf(s, inst.proj)]++
				return true
			})
			checkOnce(t, seed, guarded, "exact", got, all, complete)

			s, bounds, guard = inst.enumSolver(guarded)
			got = map[uint]int{}
			for k := 0; k <= len(inst.proj); k++ {
				bound := LitUndef
				if k < len(bounds) {
					bound = bounds[k]
				}
				_, complete = s.EnumerateProjected(inst.proj, roundOptions(guard, bound, false), func(trueLits []Lit) bool {
					if len(trueLits) > k {
						t.Fatalf("seed %d: limit %d reported a true-set of size %d", seed, k, len(trueLits))
					}
					got[maskOf(s, inst.proj)]++
					return true
				})
				if !complete {
					break
				}
			}
			checkOnce(t, seed, guarded, "staged subset", got, minimal(all), complete)
		}
	}
}

func checkOnce(t *testing.T, seed int, guarded bool, mode string, got map[uint]int, want map[uint]bool, complete bool) {
	t.Helper()
	if !complete {
		t.Fatalf("seed %d guarded=%v %s: enumeration incomplete", seed, guarded, mode)
	}
	for m, c := range got {
		if c != 1 || !want[m] {
			t.Fatalf("seed %d guarded=%v %s: projection %b reported %d times (expected: %v)", seed, guarded, mode, m, c, want[m])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d guarded=%v %s: %d projections, brute force has %d", seed, guarded, mode, len(got), len(want))
	}
}

// TestEnumerateHeldTrailExitsAtLevelZero: every way out of
// EnumerateProjected — the cap, fn returning false, cancellation before
// or right after a model, an exhausted conflict budget and the final
// UNSAT — leaves the solver at decision level 0 with exactly the
// blocking clauses of the models it blocked. AddClause and Clone work
// afterwards, and the solver, its clone and a fresh solver given the
// same clauses agree on follow-up solves.
func TestEnumerateHeldTrailExitsAtLevelZero(t *testing.T) {
	exits := []string{"cap", "fn-false", "ctx-before", "ctx-after-model", "max-conflicts", "unsat"}
	seeds := 300
	if testing.Short() {
		seeds = 100
	}
	budgetExits := 0
	for seed := 1; seed <= seeds; seed++ {
		for _, exit := range exits {
			for _, guarded := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(seed)))
				inst := randomEnumInstance(rng)
				exact := seed%2 == 0
				s, _, guard := inst.enumSolver(guarded)
				fresh, _, _ := inst.enumSolver(guarded)
				opts := roundOptions(guard, LitUndef, exact)
				ctx, cancel := context.WithCancel(context.Background())
				var models [][]Lit // the blocking clause of every reported model
				fn := func(trueLits []Lit) bool {
					models = append(models, blockOf(s, inst.proj, trueLits, opts))
					switch exit {
					case "fn-false":
						return len(models) < 2
					case "ctx-after-model":
						cancel()
					}
					return true
				}
				switch exit {
				case "cap":
					opts.MaxSolutions = 2
				case "ctx-before":
					cancel()
				case "max-conflicts":
					s.MaxConflicts = 1
				}
				opts.Ctx = ctx
				n, complete := s.EnumerateProjected(inst.proj, opts, fn)
				cancel()
				s.MaxConflicts = 0
				if s.decisionLevel() != 0 {
					t.Fatalf("seed %d %s: enumeration returned at level %d", seed, exit, s.decisionLevel())
				}
				if n != len(models) {
					t.Fatalf("seed %d %s: n=%d, fn saw %d models", seed, exit, n, len(models))
				}
				blocked := models
				if exit == "fn-false" || exit == "ctx-after-model" {
					if len(models) > 0 && !complete {
						blocked = models[:len(models)-1]
					}
				}
				if exit == "max-conflicts" && !complete {
					budgetExits++
				}
				for _, c := range blocked {
					fresh.AddClause(c...)
				}
				if guarded {
					s.AddClause(guard.Neg())
					fresh.AddClause(guard.Neg())
				}
				extra := randomClauses(rng, inst.nVars, 1, 2)[0]
				s.AddClause(extra...)
				fresh.AddClause(extra...)
				clone := s.Clone(true)
				for probe := 0; probe < 4; probe++ {
					assumps := []Lit{MkLit(Var(rng.Intn(inst.nVars)), rng.Intn(2) == 1)}
					want := fresh.Solve(assumps...)
					if got := s.Solve(assumps...); got != want {
						t.Fatalf("seed %d %s guarded=%v probe %d: solver %v, fresh %v", seed, exit, guarded, probe, got, want)
					}
					if got := clone.Solve(assumps...); got != want {
						t.Fatalf("seed %d %s guarded=%v probe %d: clone %v, fresh %v", seed, exit, guarded, probe, got, want)
					}
				}
			}
		}
	}
	if budgetExits == 0 {
		t.Error("no enumeration stopped on its conflict budget; the max-conflicts exit went untested")
	}
}

// blockOf returns the blocking clause EnumerateProjected adds for the
// current model, as a fresh slice.
func blockOf(s *Solver, proj, trueLits []Lit, opts EnumOptions) []Lit {
	var c []Lit
	if opts.ExactBlocking {
		for _, l := range proj {
			if s.ValueLit(l) == LTrue {
				c = append(c, l.Neg())
			} else {
				c = append(c, l)
			}
		}
	} else {
		for _, l := range trueLits {
			c = append(c, l.Neg())
		}
	}
	return append(c, opts.BlockExtra...)
}
