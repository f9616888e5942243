package core

// Executable versions of the paper's worked examples and theory results
// (Section 3). The netlists of Figure 5 are reconstructions that
// preserve the published structure of the arguments: the figures' exact
// pin-level detail is not fully specified in the text, so the circuits
// here are built to exhibit precisely the claimed phenomena.

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

// fig5a builds the Lemma 2 circuit: an AND whose two fanins reconverge
// from a single gate A, with a test wanting output 1 but observing 0.
//
//	i1=1, i2=0:  A = AND(i1,i2) = 0;  B = BUF(A) = 0;  C = BUF(A) = 0
//	D = AND(B, C) = 0, correct value 1.
//
// PT marks {A,B,D} (or {A,C,D} under another controlling choice); the
// cover {B} rectifies nothing.
func fig5a(t *testing.T) (*circuit.Circuit, circuit.Test, map[string]int) {
	t.Helper()
	b := circuit.NewBuilder("fig5a")
	i1 := b.Input("i1")
	i2 := b.Input("i2")
	a := b.Gate(logic.And, "A", i1, i2)
	bb := b.Gate(logic.Buf, "B", a)
	cc := b.Gate(logic.Buf, "C", a)
	d := b.Gate(logic.And, "D", bb, cc)
	b.Output(d)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	test := circuit.Test{Vector: []bool{true, false}, Output: d, Want: true}
	names := map[string]int{"A": a, "B": bb, "C": cc, "D": d}
	return c, test, names
}

// fig5b builds the Lemma 4 circuit: output E = AND(A, B) with both
// fanins at the controlling value, so PT marks only one branch; the
// valid essential correction {A,B} is invisible to set covering.
//
//	i1=0, i2=1, i3=0:  A = AND(i1,i2) = 0;  B = BUF(i3) = 0
//	E = AND(A, B) = 0, correct value 1.
func fig5b(t *testing.T) (*circuit.Circuit, circuit.Test, map[string]int) {
	t.Helper()
	b := circuit.NewBuilder("fig5b")
	i1 := b.Input("i1")
	i2 := b.Input("i2")
	i3 := b.Input("i3")
	a := b.Gate(logic.And, "A", i1, i2)
	bb := b.Gate(logic.Buf, "B", i3)
	e := b.Gate(logic.And, "E", a, bb)
	b.Output(e)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	test := circuit.Test{Vector: []bool{false, true, false}, Output: e, Want: true}
	names := map[string]int{"A": a, "B": bb, "E": e}
	return c, test, names
}

func gateSet(names map[string]int, labels ...string) []int {
	out := make([]int, len(labels))
	for i, l := range labels {
		out[i] = names[l]
	}
	return out
}

func TestFig5aPathTraceMarksOneBranch(t *testing.T) {
	c, test, names := fig5a(t)
	ci := PathTrace(sim.New(c), test, PTOptions{Policy: MarkFirst})
	want := NewCorrection(gateSet(names, "A", "B", "D"))
	got := NewCorrection(ci)
	if got.Key() != want.Key() {
		t.Fatalf("PT marked %v, want %v (the {A,B,D} branch)", got, want)
	}
	// The other nondeterministic outcome, {A,C,D}, arises under MarkAll
	// restricted... verify MarkAll marks the union {A,B,C,D}.
	all := PathTrace(sim.New(c), test, PTOptions{Policy: MarkAll})
	wantAll := NewCorrection(gateSet(names, "A", "B", "C", "D"))
	if NewCorrection(all).Key() != wantAll.Key() {
		t.Fatalf("MarkAll marked %v, want %v", NewCorrection(all), wantAll)
	}
}

// TestLemma2CovSolutionNotValid: there exist covering solutions that are
// not valid corrections.
func TestLemma2CovSolutionNotValid(t *testing.T) {
	c, test, names := fig5a(t)
	covRes, err := COV(c, circuit.TestSet{test}, CovOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !covRes.Complete {
		t.Fatal("COV enumeration incomplete")
	}
	// All three singletons {A}, {B}, {D} cover the single candidate set.
	if len(covRes.Solutions) != 3 {
		t.Fatalf("COV returned %d solutions %v, want 3 singletons", len(covRes.Solutions), covRes.Solutions)
	}
	bSol := NewCorrection([]int{names["B"]})
	if !covRes.ContainsKey(bSol) {
		t.Fatalf("COV solutions %v miss {B}", covRes.Solutions)
	}
	if Validate(c, circuit.TestSet{test}, bSol.Gates) {
		t.Fatal("Lemma 2 violated: {B} validated as a correction")
	}
}

// TestTheorem1CovMinusBSAT: SCDiagnose computes solutions that
// BasicSATDiagnose does not.
func TestTheorem1CovMinusBSAT(t *testing.T) {
	c, test, names := fig5a(t)
	tests := circuit.TestSet{test}
	covRes, err := COV(c, tests, CovOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	satRes, err := BSAT(c, tests, BSATOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !satRes.Complete {
		t.Fatal("BSAT enumeration incomplete")
	}
	// BSAT: exactly the valid singletons {A} and {D}.
	wantSAT := map[string]bool{
		NewCorrection([]int{names["A"]}).Key(): true,
		NewCorrection([]int{names["D"]}).Key(): true,
	}
	if len(satRes.Solutions) != 2 {
		t.Fatalf("BSAT returned %v, want {A} and {D}", satRes.Solutions)
	}
	for _, s := range satRes.Solutions {
		if !wantSAT[s.Key()] {
			t.Fatalf("unexpected BSAT solution %v", s)
		}
	}
	// {B} is in COV but not in BSAT: Theorem 1.
	bSol := NewCorrection([]int{names["B"]})
	if !covRes.ContainsKey(bSol) || satRes.ContainsKey(bSol) {
		t.Fatalf("Theorem 1 witness missing: COV=%v BSAT=%v", covRes.Solutions, satRes.Solutions)
	}
}

// TestLemma4ValidCorrectionMissedByCov: a valid correction within the
// size bound that SCDiagnose cannot produce.
func TestLemma4ValidCorrectionMissedByCov(t *testing.T) {
	c, test, names := fig5b(t)
	tests := circuit.TestSet{test}
	ab := NewCorrection(gateSet(names, "A", "B"))
	if !Validate(c, tests, ab.Gates) {
		t.Fatal("{A,B} should be a valid correction")
	}
	if Validate(c, tests, []int{names["A"]}) || Validate(c, tests, []int{names["B"]}) {
		t.Fatal("{A} or {B} alone should not rectify the test")
	}
	// PT must not mark B (it chose the A branch).
	ci := PathTrace(sim.New(c), test, PTOptions{Policy: MarkFirst})
	for _, g := range ci {
		if g == names["B"] {
			t.Fatal("PT marked B; reconstruction broken")
		}
	}
	covRes, err := COV(c, tests, CovOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if covRes.ContainsKey(ab) {
		t.Fatalf("Lemma 4 violated: COV found %v", ab)
	}
}

// TestTheorem2BSATMinusCov: BasicSATDiagnose computes solutions that
// SCDiagnose does not.
func TestTheorem2BSATMinusCov(t *testing.T) {
	c, test, names := fig5b(t)
	tests := circuit.TestSet{test}
	covRes, err := COV(c, tests, CovOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	satRes, err := BSAT(c, tests, BSATOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !satRes.Complete || !covRes.Complete {
		t.Fatal("enumeration incomplete")
	}
	ab := NewCorrection(gateSet(names, "A", "B"))
	if !satRes.ContainsKey(ab) {
		t.Fatalf("BSAT solutions %v miss {A,B}", satRes.Solutions)
	}
	if covRes.ContainsKey(ab) {
		t.Fatalf("COV unexpectedly found %v", ab)
	}
	// Sanity: BSAT = {{E}, {A,B}} exactly.
	if len(satRes.Solutions) != 2 {
		t.Fatalf("BSAT returned %v, want {{E}, {A,B}}", satRes.Solutions)
	}
}

// TestLemma1AllBSATSolutionsValid (on the worked examples): every BSAT
// solution is a valid correction.
func TestLemma1AllBSATSolutionsValid(t *testing.T) {
	for _, build := range []func(*testing.T) (*circuit.Circuit, circuit.Test, map[string]int){fig5a, fig5b} {
		c, test, _ := build(t)
		tests := circuit.TestSet{test}
		res, err := BSAT(c, tests, BSATOptions{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, sol := range res.Solutions {
			if !Validate(c, tests, sol.Gates) {
				t.Fatalf("%s: BSAT solution %v is not a valid correction", c.Name, sol)
			}
		}
	}
}

// TestLemma3EssentialOnly (on the worked examples): BSAT solutions
// contain only essential candidates and are mutually non-nested.
func TestLemma3EssentialOnly(t *testing.T) {
	for _, build := range []func(*testing.T) (*circuit.Circuit, circuit.Test, map[string]int){fig5a, fig5b} {
		c, test, _ := build(t)
		tests := circuit.TestSet{test}
		res, err := BSAT(c, tests, BSATOptions{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range res.Solutions {
			if !Essential(c, tests, a.Gates) {
				t.Fatalf("%s: solution %v not essential-only", c.Name, a)
			}
			for j, b := range res.Solutions {
				if i != j && a.SubsetOf(b) {
					t.Fatalf("%s: solution %v nested in %v", c.Name, a, b)
				}
			}
		}
	}
}

// TestCovSolutionsAreIrredundantCovers: COV solutions satisfy the
// set-covering conditions (a) and (b) of Figure 4.
func TestCovSolutionsAreIrredundantCovers(t *testing.T) {
	c, test, _ := fig5a(t)
	covRes, err := COV(c, circuit.TestSet{test}, CovOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sol := range covRes.Solutions {
		if !covRes.Problem.Irredundant(sol.Gates) {
			t.Fatalf("COV solution %v is not an irredundant cover", sol)
		}
		if len(sol.Gates) > 2 {
			t.Fatalf("COV solution %v exceeds k", sol)
		}
	}
}

// TestHybridSameSolutionsOnExamples: steering the decision heuristics
// must not change the solution space (Section 6's safety property).
func TestHybridSameSolutionsOnExamples(t *testing.T) {
	for _, build := range []func(*testing.T) (*circuit.Circuit, circuit.Test, map[string]int){fig5a, fig5b} {
		c, test, _ := build(t)
		tests := circuit.TestSet{test}
		plain, err := BSAT(c, tests, BSATOptions{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		hyb, _, err := HybridBSAT(c, tests, BSATOptions{K: 2}, PTOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !SameSolutions(&plain.SolutionSet, &hyb.SolutionSet) {
			t.Fatalf("%s: hybrid %v vs plain %v", c.Name, hyb.Solutions, plain.Solutions)
		}
	}
}

// TestCovGuidedRepairOnFig5b: no covering solution of fig5a... on fig5b
// the first COV solutions include the valid {E}; on a crafted case where
// all covering singletons are invalid, SAT repair must find a valid
// correction near the seed.
func TestCovGuidedRepairOnFig5b(t *testing.T) {
	c, test, _ := fig5b(t)
	tests := circuit.TestSet{test}
	covRes, err := COV(c, tests, CovOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CovGuidedRepair(c, tests, covRes, BSATOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Found {
		t.Fatal("repair found nothing")
	}
	if !Validate(c, tests, rep.Correction.Gates) {
		t.Fatalf("repair returned invalid correction %v", rep.Correction)
	}
}

// TestCovGuidedRepairNeedsRepair exercises the SAT-repair path: force a
// covering result whose only solution is invalid.
func TestCovGuidedRepairNeedsRepair(t *testing.T) {
	c, test, names := fig5a(t)
	tests := circuit.TestSet{test}
	covRes := &CovResult{}
	covRes.Solutions = []Correction{NewCorrection([]int{names["B"]})} // invalid seed
	covRes.Complete = true
	rep, err := CovGuidedRepair(c, tests, covRes, BSATOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Found || !rep.Repaired {
		t.Fatalf("expected SAT repair, got %+v", rep)
	}
	if !Validate(c, tests, rep.Correction.Gates) {
		t.Fatalf("repaired correction %v invalid", rep.Correction)
	}
}

// TestCovOneBeforeAll: the "One" column is the time to the first cover,
// not to the end of the enumeration, so on a cell with thousands of
// covers it is well below "All".
func TestCovOneBeforeAll(t *testing.T) {
	c, tests, _ := cegarLargeScenario(t, "s1423x", 4, 16)
	res, err := COV(c, tests, CovOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	one, all := res.Timings.One, res.Timings.All
	t.Logf("%d covers, one %v, all %v", len(res.Solutions), one, all)
	if len(res.Solutions) < 500 {
		t.Fatalf("only %d covers; the cell must have many", len(res.Solutions))
	}
	if one <= 0 || 2*one >= all {
		t.Fatalf("one %v is not well below all %v", one, all)
	}
}
