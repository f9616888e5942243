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

// TestCovGuidedRepairSessionGrowsLadder: repairing at K=2 through a
// session built for K=1 grows the session's ladder instead of refusing
// or dropping the bound. The seed is one of two injected sites, which
// alone is not a valid correction, so the repair runs the SAT search
// under "at most 2": it must agree with the standalone repair at K=2 on
// Found, return a valid correction of at most 2 gates, and leave the
// session able to bound 2 without growing again.
func TestCovGuidedRepairSessionGrowsLadder(t *testing.T) {
	repaired := 0
	for seed := int64(1); seed <= 40 && repaired < 3; seed++ {
		sc := makeScenario(t, seed, 2, 6)
		if sc == nil || len(sc.sites) != 2 {
			continue
		}
		cov := &CovResult{SolutionSet: SolutionSet{Solutions: []Correction{NewCorrection(sc.sites[:1])}}}
		if Validate(sc.faulty, sc.tests, cov.Solutions[0].Gates) {
			continue // the seed needs no SAT repair, so no bound is asked for
		}
		bsat, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		sess := bsat.Session()
		if w := sess.Ladder.Width(); w != 2 {
			t.Fatalf("seed %d: K=1 session ladder width %d, want 2", seed, w)
		}
		reused, err := CovGuidedRepairSession(sess, sc.tests, cov, BSATOptions{K: 2})
		if err != nil {
			t.Fatalf("seed %d: K=2 on a K=1 session: %v", seed, err)
		}
		standalone, err := CovGuidedRepair(sc.faulty, sc.tests, cov, BSATOptions{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if standalone.Found != reused.Found {
			t.Fatalf("seed %d: standalone found=%v, session found=%v", seed, standalone.Found, reused.Found)
		}
		if !reused.Found {
			t.Fatalf("seed %d: no repair at K=2 although the injected sites are one", seed)
		}
		if g := reused.Correction.Gates; len(g) > 2 || !Validate(sc.faulty, sc.tests, g) {
			t.Fatalf("seed %d: session repair %v invalid or over the bound", seed, reused.Correction)
		}
		if w := sess.Ladder.Width(); w != 3 {
			t.Fatalf("seed %d: ladder width %d after a K=2 repair, want 3", seed, w)
		}
		repaired++
	}
	if repaired == 0 {
		t.Fatal("no scenario needed a SAT repair; the ladder growth went unexercised")
	}
}

// TestCovGuidedRepairSessionReuse: repairing through a session recycled
// from a BSAT run must agree with the standalone repair path. The guard
// against restricted sessions looks at the candidates the session was
// built with, not at its live select lines: a session over every
// internal gate is accepted although only the gates of its copies'
// cones have lines, and one built over a candidate subset is refused.
func TestCovGuidedRepairSessionReuse(t *testing.T) {
	partial := 0
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
		if len(bsat.Session().Sels) < sc.faulty.NumInternal() {
			partial++
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
		internal := sc.faulty.InternalGates()
		restricted, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k, Candidates: internal[:len(internal)-1]})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CovGuidedRepairSession(restricted.Session(), sc.tests, cov, BSATOptions{K: sc.k}); err == nil {
			t.Fatalf("seed %d: a session restricted to %d of %d internal gates was reused", seed, len(internal)-1, len(internal))
		}
	}
	if partial == 0 {
		t.Fatal("every session had a select line at every internal gate; the guard went unexercised")
	}
}
