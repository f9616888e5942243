package core

// Property-based validation of the paper's theory on randomized
// circuit/fault/test scenarios (testing/quick): Lemmas 1 and 3 as
// invariants, solution-space invariance of the advanced options, and the
// end-to-end guarantee that the injected error set always dominates some
// enumerated solution.

import (
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/sim"
	"repro/internal/tgen"
)

// scenario is one randomized diagnosis pipeline instance.
type scenario struct {
	golden *circuit.Circuit
	faulty *circuit.Circuit
	sites  []int
	tests  circuit.TestSet
	k      int
}

// makeScenario builds a reproducible random scenario; returns nil when
// the sampled fault is undetectable (skipped by callers).
func makeScenario(t *testing.T, seed int64, p, m int) *scenario {
	t.Helper()
	golden, err := gen.Generate(gen.Spec{
		Name:   "prop",
		Inputs: 6, Outputs: 3, Gates: 40,
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := faults.Model(abs64(seed) % 3)
	faulty, fs, err := faults.Inject(golden, faults.Options{Count: p, Model: model, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tests, err := tgen.Random(golden, faulty, tgen.Options{Count: m, Seed: seed, MaxPatterns: 1 << 12})
	if err == tgen.ErrUndetected {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	if bad := tgen.Verify(golden, faulty, tests); bad >= 0 {
		t.Fatalf("seed %d: test %d violates the test-set invariant", seed, bad)
	}
	return &scenario{golden: golden, faulty: faulty, sites: fs.Sites(), tests: tests, k: p}
}

func TestLemma1Property(t *testing.T) {
	// Every BSAT solution is a valid correction, for random scenarios.
	f := func(seed int64) bool {
		sc := makeScenario(t, seed%5000, 1+int(abs64(seed)%2), 4)
		if sc == nil {
			return true
		}
		res, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k, MaxSolutions: 64})
		if err != nil {
			t.Fatal(err)
		}
		s := sim.New(sc.faulty)
		for _, sol := range res.Solutions {
			if !ValidateSim(s, sc.tests, sol.Gates) {
				t.Logf("seed %d: invalid solution %v", seed, sol)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLemma3Property(t *testing.T) {
	// BSAT solutions are mutually non-nested and essential-only (when
	// enumeration completes).
	f := func(seed int64) bool {
		sc := makeScenario(t, seed%5000, 1+int(abs64(seed)%2), 4)
		if sc == nil {
			return true
		}
		res, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			return true
		}
		for i, a := range res.Solutions {
			for j, b := range res.Solutions {
				if i != j && a.SubsetOf(b) {
					t.Logf("seed %d: %v nested in %v", seed, a, b)
					return false
				}
			}
			if !Essential(sc.faulty, sc.tests, a.Gates) {
				t.Logf("seed %d: %v not essential", seed, a)
				return false
			}
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

func TestErrorSitesDominateSomeSolutionProperty(t *testing.T) {
	// The injected error set is a valid correction (restoring the golden
	// functions rectifies every test), so with k = p and complete
	// enumeration some BSAT solution must be a subset of the error sites.
	f := func(seed int64) bool {
		sc := makeScenario(t, seed%5000, 1+int(abs64(seed)%3), 6)
		if sc == nil {
			return true
		}
		if !Validate(sc.faulty, sc.tests, sc.sites) {
			t.Logf("seed %d: error sites %v not a valid correction?!", seed, sc.sites)
			return false
		}
		res, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			return true
		}
		sitesCorr := NewCorrection(sc.sites)
		for _, sol := range res.Solutions {
			if sol.SubsetOf(sitesCorr) {
				return true
			}
		}
		t.Logf("seed %d: no solution within error sites %v (solutions %v)", seed, sc.sites, res.Solutions)
		return false
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAdvancedOptionsPreserveSolutionSpace(t *testing.T) {
	// Hybrid steering must enumerate exactly the basic solution set
	// (Section 2.3: "These techniques do not change the solution
	// space"). The encoding itself is checked against brute-force
	// simulation in TestBSATMatchesSimulationOracle and against the
	// paper's multiplexer in TestRelaxedGateMatchesFigure2Mux.
	f := func(seed int64) bool {
		sc := makeScenario(t, seed%5000, 1+int(abs64(seed)%2), 4)
		if sc == nil {
			return true
		}
		base, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		if !base.Complete {
			return true
		}
		hyb, _, err := HybridBSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k}, PTOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return SameSolutions(&base.SolutionSet, &hyb.SolutionSet)
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 6
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// encodeMux adds y <-> (sel ? c : z), the correction multiplexer of the
// paper's Figure 2(a).
func encodeMux(s *sat.Solver, y, sel, c, z sat.Lit) {
	s.AddClause(sel, y.Neg(), z)
	s.AddClause(sel, y, z.Neg())
	s.AddClause(sel.Neg(), y.Neg(), c)
	s.AddClause(sel.Neg(), y, c.Neg())
}

// figure2Solutions is the reference builder for BSAT: the instance
// exactly as the paper's Figure 2 draws it — a whole-circuit copy per
// test, and at every internal gate a multiplexer choosing between the
// gate function z and a free correction value c, its select line shared
// across copies — enumerated by Figure 3's loop over limits 1..k with a
// blocking clause per solution.
func figure2Solutions(c *circuit.Circuit, tests circuit.TestSet, k int) *SolutionSet {
	s := sat.New()
	cands := c.InternalGates()
	sels := make([]sat.Lit, len(cands))
	selOf := make(map[int]sat.Lit, len(cands))
	gateOf := make(map[sat.Var]int, len(cands))
	for j, g := range cands {
		sels[j] = sat.PosLit(s.NewVar())
		selOf[g] = sels[j]
		gateOf[sels[j].Var()] = g
	}
	ladder := cnf.AddLadder(s, sels, k)
	for _, t := range tests {
		vars := make([]sat.Var, len(c.Gates))
		for g := range vars {
			vars[g] = s.NewVar()
		}
		for g := range c.Gates {
			gate := &c.Gates[g]
			y := sat.PosLit(vars[g])
			if gate.Kind == logic.Input {
				s.AddClause(sat.MkLit(vars[g], !t.Vector[c.InputPos(g)]))
				continue
			}
			fan := make([]sat.Lit, len(gate.Fanin))
			for i, f := range gate.Fanin {
				fan[i] = sat.PosLit(vars[f])
			}
			sel, isCand := selOf[g]
			if !isCand {
				cnf.EncodeGate(s, gate, y, fan, sat.LitUndef)
				continue
			}
			z := sat.PosLit(s.NewVar())
			cnf.EncodeGate(s, gate, z, fan, sat.LitUndef)
			encodeMux(s, y, sel, sat.PosLit(s.NewVar()), z)
		}
		s.AddClause(sat.MkLit(vars[t.Output], !t.Want))
	}
	out := &SolutionSet{Complete: true}
	for limit := 1; limit <= k; limit++ {
		var assumps []sat.Lit
		if l := ladder.AtMost(limit); l != sat.LitUndef {
			assumps = append(assumps, l)
		}
		_, complete := s.EnumerateProjected(sels, sat.EnumOptions{Assumptions: assumps}, func(trueLits []sat.Lit) bool {
			gates := make([]int, len(trueLits))
			for i, l := range trueLits {
				gates[i] = gateOf[l.Var()]
			}
			out.Solutions = append(out.Solutions, NewCorrection(gates))
			return true
		})
		out.Complete = out.Complete && complete
	}
	return out
}

// TestRelaxedGateMatchesFigure2Mux: BSAT relaxes each candidate gate's
// clauses by its select line and encodes only each test's output cone;
// the paper's Figure 2 gives every gate of every whole-circuit copy a
// multiplexer. Both must enumerate the same solution set.
func TestRelaxedGateMatchesFigure2Mux(t *testing.T) {
	scenarios := 24
	if testing.Short() {
		scenarios = 8
	}
	checked := 0
	for seed := int64(1); checked < scenarios; seed++ {
		sc := makeScenario(t, seed, 1+int(seed%2), 6)
		if sc == nil {
			continue
		}
		checked++
		res, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		ref := figure2Solutions(sc.faulty, sc.tests, sc.k)
		if !res.Complete || !ref.Complete {
			t.Fatalf("seed %d: incomplete enumeration", seed)
		}
		if !SameSolutions(&res.SolutionSet, ref) {
			t.Fatalf("seed %d: relaxed-gate solutions %v, Figure 2 multiplexer %v", seed, res.Solutions, ref.Solutions)
		}
	}
}

func TestPathTraceStructuralProperties(t *testing.T) {
	// Every Ci is non-empty, contains the erroneous output gate, lies
	// within the output's fanin cone, and contains no input gates.
	f := func(seed int64) bool {
		sc := makeScenario(t, seed%5000, 1, 6)
		if sc == nil {
			return true
		}
		bsim := BSIM(sc.faulty, sc.tests, PTOptions{})
		for i, ci := range bsim.Sets {
			test := sc.tests[i]
			if len(ci) == 0 {
				t.Logf("seed %d: empty candidate set", seed)
				return false
			}
			cone := sc.faulty.FaninCone(test.Output)
			foundOut := false
			for _, g := range ci {
				if g == test.Output {
					foundOut = true
				}
				if !cone[g] {
					t.Logf("seed %d: gate %d outside cone of %d", seed, g, test.Output)
					return false
				}
				if sc.faulty.Gates[g].Kind == logic.Input {
					t.Logf("seed %d: input gate %d in Ci", seed, g)
					return false
				}
			}
			if !foundOut {
				t.Logf("seed %d: output gate missing from Ci", seed)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMarkAllSupersetProperty(t *testing.T) {
	// The conservative MarkAll policy always marks a superset of any
	// single-choice policy's candidate set.
	f := func(seed int64) bool {
		sc := makeScenario(t, seed%5000, 1, 4)
		if sc == nil {
			return true
		}
		s := sim.New(sc.faulty)
		for _, test := range sc.tests {
			first := NewCorrection(PathTrace(s, test, PTOptions{Policy: MarkFirst}))
			rnd := NewCorrection(PathTrace(s, test, PTOptions{Policy: MarkRandom, Seed: seed}))
			all := NewCorrection(PathTrace(s, test, PTOptions{Policy: MarkAll}))
			if !first.SubsetOf(all) || !rnd.SubsetOf(all) {
				t.Logf("seed %d: MarkAll %v misses members of %v / %v", seed, all, first, rnd)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSingleErrorInIntersectionProperty(t *testing.T) {
	// For single errors, the paper states the actual error site is in the
	// intersection of all candidate sets. Classic path tracing can in
	// rare reconvergent cases miss the site under single-choice policies,
	// so the guarantee is asserted for the conservative MarkAll policy
	// and measured (not asserted) for MarkFirst.
	missFirst, total := 0, 0
	f := func(seed int64) bool {
		sc := makeScenario(t, seed%5000, 1, 6)
		if sc == nil {
			return true
		}
		site := sc.sites[0]
		all := BSIM(sc.faulty, sc.tests, PTOptions{Policy: MarkAll})
		inter := all.Intersection()
		found := false
		for _, g := range inter {
			if g == site {
				found = true
				break
			}
		}
		if !found {
			t.Logf("seed %d: site %d not in MarkAll intersection %v", seed, site, inter)
			return false
		}
		first := BSIM(sc.faulty, sc.tests, PTOptions{Policy: MarkFirst})
		total++
		if first.MarkCount[site] != len(sc.tests) {
			missFirst++
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	if total > 0 {
		t.Logf("MarkFirst missed the error site in %d/%d scenarios (informational)", missFirst, total)
	}
}

func TestPartitionedBSATSoundProperty(t *testing.T) {
	// Partitioned solutions are always full-test-set BSAT solutions.
	f := func(seed int64) bool {
		sc := makeScenario(t, seed%5000, 1+int(abs64(seed)%2), 6)
		if sc == nil || len(sc.tests) < 4 {
			return true
		}
		full, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		if !full.Complete {
			return true
		}
		part, err := PartitionedBSAT(sc.faulty, sc.tests, 2, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		for _, sol := range part.Solutions {
			if !full.ContainsKey(sol) {
				t.Logf("seed %d: partitioned %v not in full %v", seed, sol, full.Solutions)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFFRTwoPassSoundProperty(t *testing.T) {
	// Two-pass solutions are valid corrections (soundness), and pass 1
	// finds at least one solution whenever plain BSAT does.
	f := func(seed int64) bool {
		sc := makeScenario(t, seed%5000, 1, 4)
		if sc == nil {
			return true
		}
		full, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		pass1, pass2, err := FFRTwoPass(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		if full.Complete && len(full.Solutions) > 0 && pass1.Complete && len(pass1.Solutions) == 0 {
			t.Logf("seed %d: pass 1 empty though solutions exist", seed)
			return false
		}
		for _, sol := range pass2.Solutions {
			if !Validate(sc.faulty, sc.tests, sol.Gates) {
				t.Logf("seed %d: two-pass solution %v invalid", seed, sol)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		if x == -x { // MinInt64
			return 0
		}
		return -x
	}
	return x
}
