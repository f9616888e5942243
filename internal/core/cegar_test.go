package core

import (
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/tgen"
)

// TestCEGAREquivalenceProperty is the correctness contract of the CEGAR
// loop: on randomized circuits, fault injections and test-sets,
// CEGARDiagnose must return exactly the monolithic BSAT solution set
// while never encoding more test copies than the monolith.
func TestCEGAREquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		sc := makeScenario(t, seed%5000, 1+int(abs64(seed)%2), 6)
		if sc == nil {
			return true
		}
		opts := BSATOptions{K: sc.k}
		mono, err := BSAT(sc.faulty, sc.tests, opts)
		if err != nil {
			t.Fatal(err)
		}
		cegar, err := CEGARDiagnose(sc.faulty, sc.tests, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !mono.Complete || !cegar.Complete {
			return true
		}
		if !SameSolutions(&mono.SolutionSet, &cegar.SolutionSet) {
			t.Logf("seed %d: cegar %v != mono %v", seed, cegar.Solutions, mono.Solutions)
			return false
		}
		if cegar.Copies > len(sc.tests) {
			t.Logf("seed %d: %d copies for %d tests", seed, cegar.Copies, len(sc.tests))
			return false
		}
		if cegar.Vars > mono.Vars {
			t.Logf("seed %d: cegar instance larger than mono (%d > %d vars)", seed, cegar.Vars, mono.Vars)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCEGARCapReturnsDistinctGenuinePrefix: under MaxSolutions the
// monolithic CEGAR loop stops at exactly the cap, with distinct
// solutions that all belong to the monolithic BSAT set. The cap's last
// solution is blocked like every other, so a sharded run never reports
// it again from a shard. (A sharded capped run may return fewer than
// the cap: each cube's capped prefix can hold supersets the merge
// drops.)
func TestCEGARCapReturnsDistinctGenuinePrefix(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 12 && checked < 4; seed++ {
		sc := makeScenario(t, seed, 2, 5)
		if sc == nil {
			continue
		}
		mono, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		if !mono.Complete || len(mono.Solutions) < 3 {
			continue
		}
		checked++
		all := map[string]bool{}
		for _, s := range mono.Solutions {
			all[s.Key()] = true
		}
		limit := len(mono.Solutions) - 1
		for _, shards := range []int{1, 3} {
			res, err := CEGARDiagnose(sc.faulty, sc.tests, BSATOptions{K: sc.k, MaxSolutions: limit, Shards: shards, ShardSample: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Complete || len(res.Solutions) > limit || (shards == 1 && len(res.Solutions) != limit) {
				t.Fatalf("seed %d shards=%d: %d solutions (complete=%v) under cap %d of %d", seed, shards, len(res.Solutions), res.Complete, limit, len(mono.Solutions))
			}
			seen := map[string]bool{}
			for _, s := range res.Solutions {
				if seen[s.Key()] || (shards == 1 && !all[s.Key()]) {
					t.Fatalf("seed %d shards=%d: solution %v repeated or not genuine: %v", seed, shards, s.Gates, res.Solutions)
				}
				seen[s.Key()] = true
			}
		}
	}
	if checked == 0 {
		t.Fatal("no scenario with at least 3 solutions")
	}
}

// cegarLargeScenario prepares a suite circuit with a test-set of at
// least m failing triples.
func cegarLargeScenario(t *testing.T, name string, p, m int) (*circuit.Circuit, circuit.TestSet, int) {
	t.Helper()
	golden, err := gen.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed < 20; seed++ {
		faulty, _, err := faults.Inject(golden, faults.Options{Count: p, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		tests, err := tgen.Random(golden, faulty, tgen.Options{Count: m, Seed: seed, MaxPatterns: 1 << 14})
		if err == tgen.ErrUndetected || len(tests) < m {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		return faulty, tests, p
	}
	t.Fatalf("no detectable %d-fault injection on %s", p, name)
	return nil, nil, 0
}

// TestCEGAREncodesFewerCopies: on a realistic circuit with a large
// test-set, the abstraction must converge without encoding every test —
// the whole point of the lazy instance — while still matching BSAT.
func TestCEGAREncodesFewerCopies(t *testing.T) {
	c, tests, k := cegarLargeScenario(t, "s298x", 2, 16)
	opts := BSATOptions{K: k}
	mono, err := BSAT(c, tests, opts)
	if err != nil {
		t.Fatal(err)
	}
	cegar, err := CEGARDiagnose(c, tests, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !mono.Complete || !cegar.Complete {
		t.Fatal("enumeration incomplete without budgets")
	}
	if !SameSolutions(&mono.SolutionSet, &cegar.SolutionSet) {
		t.Fatalf("cegar %v != mono %v", cegar.Solutions, mono.Solutions)
	}
	if cegar.Copies >= len(tests) {
		t.Fatalf("CEGAR encoded %d of %d test copies — no abstraction benefit", cegar.Copies, len(tests))
	}
	if cegar.Vars >= mono.Vars {
		t.Fatalf("CEGAR instance not smaller: %d vs %d vars", cegar.Vars, mono.Vars)
	}
	t.Logf("copies %d/%d, refinements %d, vars %d vs %d, clauses %d vs %d",
		cegar.Copies, len(tests), cegar.Refinements, cegar.Vars, mono.Vars, cegar.Clauses, mono.Clauses)
}

// TestCEGARRejectsUnsupportedOptions: grouped select lines and golden
// all-output constraints have validity semantics the simulation oracle
// does not model; the driver must refuse them instead of mis-answering.
func TestCEGARRejectsUnsupportedOptions(t *testing.T) {
	sc := makeScenario(t, 7, 1, 4)
	if sc == nil {
		t.Skip("scenario undetectable")
	}
	if _, err := CEGARDiagnose(sc.faulty, sc.tests, BSATOptions{K: 1, Groups: [][]int{{1, 2}}}); err == nil {
		t.Fatal("Groups accepted")
	}
	if _, err := CEGARDiagnose(sc.faulty, sc.tests, BSATOptions{K: 1, Golden: sc.golden}); err == nil {
		t.Fatal("Golden accepted")
	}
	if _, err := CEGARDiagnose(sc.faulty, sc.tests, BSATOptions{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := CEGARDiagnose(sc.faulty, nil, BSATOptions{K: 1}); err == nil {
		t.Fatal("empty test-set accepted")
	}
}

// TestCEGARExtractFunctionsOnLiveSession: the lazily grown session must
// serve function extraction like the monolithic result does.
func TestCEGARExtractFunctionsOnLiveSession(t *testing.T) {
	sc := makeScenario(t, 11, 1, 6)
	if sc == nil {
		t.Skip("scenario undetectable")
	}
	res, err := CEGARDiagnose(sc.faulty, sc.tests, BSATOptions{K: sc.k})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) == 0 {
		t.Skip("no solutions")
	}
	funcs, err := res.ExtractFunctions(res.Solutions[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) != res.Solutions[0].Size() {
		t.Fatalf("%d gate functions for correction %v", len(funcs), res.Solutions[0])
	}
	for _, gf := range funcs {
		if !res.Solutions[0].Contains(gf.Gate) {
			t.Fatalf("function extracted for gate %d outside correction %v", gf.Gate, res.Solutions[0])
		}
	}
}

// TestFFRTwoPassSharedSessionEquivalence: both passes of the shared-
// session two-pass must match monolithic BSAT runs over the same
// candidate tiers, and repeating the whole procedure must be
// deterministic (the session-reuse determinism contract).
func TestFFRTwoPassSharedSessionEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sc := makeScenario(t, seed, 1, 4)
		if sc == nil {
			continue
		}
		pass1, pass2, err := FFRTwoPass(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		if !pass1.Complete {
			continue
		}

		// Oracle for pass 1: a fresh monolithic instance over the roots.
		roots, _ := ffrCandidates(sc.faulty)
		oracle1, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k, Candidates: roots})
		if err != nil {
			t.Fatal(err)
		}
		if !SameSolutions(&pass1.SolutionSet, &oracle1.SolutionSet) {
			t.Fatalf("seed %d: pass1 %v != oracle %v", seed, pass1.Solutions, oracle1.Solutions)
		}

		re1, re2, err := FFRTwoPass(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		if !SameSolutions(&pass1.SolutionSet, &re1.SolutionSet) || !SameSolutions(&pass2.SolutionSet, &re2.SolutionSet) {
			t.Fatalf("seed %d: FFRTwoPass not deterministic", seed)
		}
		if pass1.Session() == nil || pass1.Session() != pass2.Session() {
			t.Fatalf("seed %d: passes do not share one session", seed)
		}
	}
}

// TestPartitionedBSATMatchesRebuildReference: the assumption-scoped
// partitioning must return exactly what the old rebuild-per-partition
// formulation returned.
func TestPartitionedBSATMatchesRebuildReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sc := makeScenario(t, seed, 1+int(seed%2), 6)
		if sc == nil || len(sc.tests) < 4 {
			continue
		}
		const psize = 2
		got, err := PartitionedBSAT(sc.faulty, sc.tests, psize, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}

		// Reference: fresh BSAT per partition slice, union, essential
		// filter over the full test-set.
		byKey := make(map[string]Correction)
		for lo := 0; lo < len(sc.tests); lo += psize {
			hi := lo + psize
			if hi > len(sc.tests) {
				hi = len(sc.tests)
			}
			res, err := BSAT(sc.faulty, sc.tests[lo:hi], BSATOptions{K: sc.k})
			if err != nil {
				t.Fatal(err)
			}
			for _, sol := range res.Solutions {
				byKey[sol.Key()] = sol
			}
		}
		want := &SolutionSet{}
		for _, sol := range byKey {
			if Essential(sc.faulty, sc.tests, sol.Gates) {
				want.Solutions = append(want.Solutions, sol)
			}
		}
		if !SameSolutions(got, want) {
			t.Fatalf("seed %d: scoped %v != rebuilt %v", seed, got.Solutions, want.Solutions)
		}
	}
}

// TestCovGuidedRepairSessionRejectsWiderK: a session built for K=1
// cannot express "at most 2" (its ladder is too narrow); the reuse
// entry point must refuse instead of silently dropping the bound.
func TestCovGuidedRepairSessionRejectsWiderK(t *testing.T) {
	sc := makeScenario(t, 13, 1, 4)
	if sc == nil {
		t.Skip("scenario undetectable")
	}
	bsat, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	cov := &CovResult{SolutionSet: SolutionSet{Solutions: []Correction{NewCorrection(sc.sites)}}}
	if _, err := CovGuidedRepairSession(bsat.Session(), sc.tests, cov, BSATOptions{K: 2}); err == nil {
		t.Fatal("K wider than the session ladder accepted")
	}
}

// TestCovGuidedRepairSessionReuse: repairing through a session recycled
// from a BSAT run must agree with the standalone repair path.
func TestCovGuidedRepairSessionReuse(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		sc := makeScenario(t, seed, 1, 4)
		if sc == nil {
			continue
		}
		cov, err := COV(sc.faulty, sc.tests, CovOptions{K: sc.k, MaxSolutions: 100})
		if err != nil {
			continue
		}
		standalone, err := CovGuidedRepair(sc.faulty, sc.tests, cov, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		bsat, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		reused, err := CovGuidedRepairSession(bsat.Session(), sc.tests, cov, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		if standalone.Found != reused.Found {
			t.Fatalf("seed %d: standalone found=%v, session found=%v", seed, standalone.Found, reused.Found)
		}
		if reused.Found && !Validate(sc.faulty, sc.tests, reused.Correction.Gates) {
			t.Fatalf("seed %d: session repair %v invalid", seed, reused.Correction)
		}
	}
}
