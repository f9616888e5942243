package cnf_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/tgen"
)

// sessionScenario builds a reproducible faulty circuit with a failing
// test-set, skipping seeds whose injected fault is undetectable.
func sessionScenario(t *testing.T, seed int64, m int) (*circuit.Circuit, circuit.TestSet) {
	t.Helper()
	golden, err := gen.Generate(gen.Spec{Name: "sess", Inputs: 6, Outputs: 3, Gates: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _, err := faults.Inject(golden, faults.Options{Count: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tests, err := tgen.Random(golden, faulty, tgen.Options{Count: m, Seed: seed, MaxPatterns: 1 << 12})
	if err == tgen.ErrUndetected {
		t.Skipf("seed %d: fault undetectable", seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	return faulty, tests
}

// roundKeys enumerates one round to completion and returns the solution
// keys, sorted.
func roundKeys(t *testing.T, sess *cnf.DiagSession, opts cnf.RoundOptions) []string {
	t.Helper()
	var keys []string
	_, complete := sess.EnumerateRound(opts, func(_ int, gates []int) bool {
		keys = append(keys, fmt.Sprint(gates))
		return true
	})
	if !complete {
		t.Fatal("enumeration incomplete without budgets")
	}
	sort.Strings(keys)
	return keys
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSessionIncrementalMatchesMonolithic: appending test copies one by
// one must yield the same solution space as the one-shot cnf.BuildDiag.
func TestSessionIncrementalMatchesMonolithic(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		c, tests := sessionScenario(t, seed, 6)
		mono := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
		monoKeys := roundKeys(t, mono, cnf.RoundOptions{MaxK: 2})

		sess := cnf.NewSession(c, cnf.DiagOptions{MaxK: 2})
		for _, tc := range tests {
			sess.AddTest(tc)
		}
		if sess.NumTests() != len(tests) {
			t.Fatalf("seed %d: %d copies for %d tests", seed, sess.NumTests(), len(tests))
		}
		if got := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2}); !sameKeys(got, monoKeys) {
			t.Fatalf("seed %d: incremental %v != monolithic %v", seed, got, monoKeys)
		}
	}
}

// TestSessionRoundsAreIndependent: retiring a round must retract its
// blocking clauses, so consecutive rounds on one session enumerate the
// same solutions, and plain Solve queries still work in between.
func TestSessionRoundsAreIndependent(t *testing.T) {
	c, tests := sessionScenario(t, 3, 6)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	first := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2})
	if len(first) == 0 {
		t.Skip("no solutions for this scenario")
	}
	// A direct query between rounds: assuming every select off must be
	// UNSAT (the tests fail by definition), and the session must survive.
	off := make([]sat.Lit, len(sess.Sels))
	for j, l := range sess.Sels {
		off[j] = l.Neg()
	}
	if st := sess.Solver.Solve(off...); st != sat.StatusUnsat {
		t.Fatalf("all-selects-off should be UNSAT, got %v", st)
	}
	for round := 2; round <= 3; round++ {
		if got := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2}); !sameKeys(got, first) {
			t.Fatalf("round %d: %v != round 1 %v", round, got, first)
		}
	}
}

// TestSessionRestrictMatchesRebuild: confining candidates by assumptions
// must equal an instance built with that candidate list.
func TestSessionRestrictMatchesRebuild(t *testing.T) {
	c, tests := sessionScenario(t, 5, 6)
	all := c.InternalGates()
	if len(all) < 4 {
		t.Skip("circuit too small")
	}
	subset := append([]int(nil), all[:len(all)/2]...)

	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	restricted := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2, Restrict: subset})

	rebuilt := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2, Candidates: subset})
	want := roundKeys(t, rebuilt, cnf.RoundOptions{MaxK: 2})
	if !sameKeys(restricted, want) {
		t.Fatalf("restricted %v != rebuilt %v", restricted, want)
	}
}

// TestSessionGuardedActivationMatchesRebuild: scoping a guarded session
// to a test subset by assumptions must equal an instance built over just
// that subset.
func TestSessionGuardedActivationMatchesRebuild(t *testing.T) {
	for seed := int64(2); seed <= 5; seed++ {
		c, tests := sessionScenario(t, seed, 8)
		if len(tests) < 4 {
			continue
		}
		sess := cnf.NewSession(c, cnf.DiagOptions{MaxK: 2, GuardTests: true})
		sess.AddTests(tests)
		if len(sess.TestGuards) != len(tests) {
			t.Fatalf("seed %d: %d guards for %d tests", seed, len(sess.TestGuards), len(tests))
		}
		for lo := 0; lo < len(tests); lo += 2 {
			hi := lo + 2
			if hi > len(tests) {
				hi = len(tests)
			}
			active := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				active = append(active, i)
			}
			scoped := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2, ActiveTests: active})
			rebuilt := cnf.BuildDiag(c, tests[lo:hi], cnf.DiagOptions{MaxK: 2})
			want := roundKeys(t, rebuilt, cnf.RoundOptions{MaxK: 2})
			if !sameKeys(scoped, want) {
				t.Fatalf("seed %d partition [%d,%d): scoped %v != rebuilt %v", seed, lo, hi, scoped, want)
			}
		}
	}
}

// TestSessionRoundBudgetsAreFresh: a round whose timeout expired must
// not poison the next round — EnumerateRound installs budgets per round.
func TestSessionRoundBudgetsAreFresh(t *testing.T) {
	c, tests := sessionScenario(t, 3, 6)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	want := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2})

	// A nanosecond round times out immediately (fast-fail deadline check).
	n, complete := sess.EnumerateRound(cnf.RoundOptions{MaxK: 2, Timeout: 1}, nil)
	if complete {
		t.Skipf("nanosecond round completed anyway (%d solutions)", n)
	}
	// The next unbudgeted round must be unaffected by the stale deadline.
	if got := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2}); !sameKeys(got, want) {
		t.Fatalf("round after timeout: %v != %v", got, want)
	}
}

// TestSessionStats: the Stats snapshot must track copies, live select
// lines, rounds and solver work as the session is used, without
// disturbing it. A fresh session has no select line: each appears with
// the first copy whose cone holds its gate.
func TestSessionStats(t *testing.T) {
	c, tests := sessionScenario(t, 3, 6)
	sess := cnf.NewSession(c, cnf.DiagOptions{MaxK: 2})
	st := sess.Stats()
	if st.Copies != 0 || st.Rounds != 0 || st.Candidates != 0 || st.Vars != 0 || st.LadderWidth != 0 {
		t.Fatalf("fresh session stats: %+v", st)
	}
	sess.AddTests(tests)
	st = sess.Stats()
	if st.Copies != len(tests) {
		t.Fatalf("copies %d after %d AddTests", st.Copies, len(tests))
	}
	if want := len(coneCandidates(c, tests)); st.Candidates != want {
		t.Fatalf("%d live select lines, want the %d internal gates of the cones", st.Candidates, want)
	}
	if st.LadderWidth != 3 || st.Vars == 0 || st.Clauses == 0 || st.BuildTime <= 0 {
		t.Fatalf("instance size not reported: %+v", st)
	}

	roundKeys(t, sess, cnf.RoundOptions{MaxK: 2})
	st = sess.Stats()
	if st.Rounds != 1 || st.RetiredRounds != 1 {
		t.Fatalf("after one retired round: rounds=%d retired=%d", st.Rounds, st.RetiredRounds)
	}
	if st.BudgetedRounds != 0 {
		t.Fatalf("unbudgeted round counted as budgeted: %+v", st)
	}
	if st.Solver.Decisions == 0 && st.Solver.Propagations == 0 {
		t.Fatalf("no solver work recorded: %+v", st.Solver)
	}

	sess.EnumerateRound(cnf.RoundOptions{MaxK: 2, MaxConflicts: 1000}, nil)
	st = sess.Stats()
	if st.Rounds != 2 || st.BudgetedRounds != 1 {
		t.Fatalf("after budgeted round: rounds=%d budgeted=%d", st.Rounds, st.BudgetedRounds)
	}
}

// coneCandidates returns, as a set, the internal gates of the tests'
// output cones.
func coneCandidates(c *circuit.Circuit, tests circuit.TestSet) map[int]bool {
	in := make(map[int]bool)
	for _, tc := range tests {
		for g, ok := range c.FaninCone(tc.Output) {
			if ok && c.Gates[g].Kind != logic.Input {
				in[g] = true
			}
		}
	}
	return in
}

// TestSelectLinesFollowCones: a unit has a select line exactly when one
// of its gates lies in the cone of some encoded copy — for every
// internal gate, a restricted candidate list and time-frame groups —
// and a fork that encodes further copies allocates lines of its own
// without giving the parent any.
func TestSelectLinesFollowCones(t *testing.T) {
	c, tests := shardScenario(t, 37, 6) // three erroneous outputs
	// Highest output first: later cones bring lower gate IDs, so the
	// lines are not allocated in label order.
	slices.SortStableFunc(tests, func(a, b circuit.Test) int { return b.Output - a.Output })
	internal := c.InternalGates()
	subset := internal[len(internal)/3:]
	unordered := false
	var groups [][]int
	for i := 0; i+1 < len(internal); i += 2 {
		groups = append(groups, []int{internal[i], internal[i+1]})
	}
	for _, tc := range []struct {
		name string
		opts cnf.DiagOptions
		// unit returns the label of gate g's unit, or false.
		unit func(g int) (int, bool)
	}{
		{"all", cnf.DiagOptions{MaxK: 2}, func(g int) (int, bool) { return g, c.Gates[g].Kind != logic.Input }},
		{"restricted", cnf.DiagOptions{MaxK: 2, Candidates: subset}, func(g int) (int, bool) {
			i := sort.SearchInts(subset, g)
			return g, i < len(subset) && subset[i] == g
		}},
		{"groups", cnf.DiagOptions{MaxK: 2, Groups: groups, GuardTests: true}, func(g int) (int, bool) {
			for _, grp := range groups {
				if grp[0] == g || grp[1] == g {
					return grp[0], true
				}
			}
			return 0, false
		}},
	} {
		check := func(step string, sess *cnf.DiagSession, encoded circuit.TestSet) {
			t.Helper()
			want := make(map[int]bool)
			for g := range coneCandidates(c, encoded) {
				if label, ok := tc.unit(g); ok {
					want[label] = true
				}
			}
			got := make(map[int]bool)
			for j, label := range sess.Candidates {
				if got[label] {
					t.Fatalf("%s %s: label %d has two select lines", tc.name, step, label)
				}
				got[label] = true
				if j > 0 && sess.Sels[j].Var() <= sess.Sels[j-1].Var() {
					t.Fatalf("%s %s: select variables do not ascend", tc.name, step)
				}
				if l, ok := sess.Candidate(sess.Sels[j]); !ok || l != label {
					t.Fatalf("%s %s: Candidate(sel %d) = %d, %v", tc.name, step, label, l, ok)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: live labels %v, want %v", tc.name, step, got, want)
			}
			for g := range c.Gates {
				label, isUnit := tc.unit(g)
				if _, ok := sess.SelLit(g); ok != (isUnit && want[label]) {
					t.Fatalf("%s %s: gate %d has select line %v", tc.name, step, g, ok)
				}
			}
		}
		sess := cnf.NewSession(c, tc.opts)
		check("fresh", sess, nil)
		half := len(tests) / 2
		for i, test := range tests[:half] {
			sess.AddTest(test)
			check(fmt.Sprintf("after copy %d", i), sess, tests[:i+1])
		}
		roundKeys(t, sess, cnf.RoundOptions{MaxK: 2})
		fork := sess.Fork()
		fork.AddTests(tests[half:])
		check("fork", fork, tests)
		if len(fork.Sels) <= len(sess.Sels) {
			t.Fatalf("%s: the fork's copies added no select line; the fork check checks nothing", tc.name)
		}
		check("parent after the fork's copies", sess, tests[:half])
		// Lines are allocated in cone order, not label order; answers
		// still come back ascending.
		unordered = unordered || !slices.IsSorted(fork.Candidates)
		fork.EnumerateRound(cnf.RoundOptions{MaxK: 2}, func(_ int, gates []int) bool {
			if !slices.IsSorted(gates) {
				t.Fatalf("%s: answer %v not in ascending order", tc.name, gates)
			}
			return true
		})
	}
	if !unordered {
		t.Fatal("every session allocated its lines in label order; the order check checks nothing")
	}
}

// TestSessionWithoutLadder: a session built with MaxK 0 encodes no
// counter until a limit is asked for; its first bounded round grows the
// ladder and answers like a session built at that width.
func TestSessionWithoutLadder(t *testing.T) {
	c, tests := shardScenario(t, 5, 4)
	sess := cnf.NewSession(c, cnf.DiagOptions{})
	if st := sess.Stats(); st.LadderWidth != 0 || st.Vars != st.Candidates {
		t.Fatalf("ladder width %d, %d vars for %d select lines", st.LadderWidth, st.Vars, st.Candidates)
	}
	sess.AddTests(tests)
	want := roundKeys(t, cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2}), cnf.RoundOptions{MaxK: 2})
	if got := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2}); !sameKeys(got, want) {
		t.Fatalf("ladder-free session %v != built at MaxK 2 %v", got, want)
	}
	if w := sess.Ladder.Width(); w != 3 {
		t.Fatalf("ladder width %d after a K=2 round, want 3", w)
	}
}
