package core

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/logic"
	"repro/internal/sim"
)

func TestValidateEmptyCorrection(t *testing.T) {
	c, test, _ := fig5a(t)
	// The circuit fails the test, so the empty correction is invalid.
	if Validate(c, circuit.TestSet{test}, nil) {
		t.Fatal("empty correction validated on a failing test")
	}
	// On a passing test the empty correction is valid.
	pass := test
	pass.Want = !test.Want
	if !Validate(c, circuit.TestSet{pass}, nil) {
		t.Fatal("empty correction rejected on a passing test")
	}
}

func TestValidateOutputGateAlwaysFixesSingleOutputTest(t *testing.T) {
	c, test, names := fig5a(t)
	if !Validate(c, circuit.TestSet{test}, []int{names["D"]}) {
		t.Fatal("forcing the output gate itself must rectify its test")
	}
}

func TestValidateMoreThanSixGates(t *testing.T) {
	// Chunked evaluation path: 7 gates -> 128 assignments in 2 words.
	b := circuit.NewBuilder("wide")
	in := b.Input("i")
	gates := make([]int, 8)
	prev := in
	for i := range gates {
		prev = b.Gate(logic.Not, "", prev)
		gates[i] = prev
	}
	out := b.Gate(logic.Buf, "out", prev)
	b.Output(out)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// i=0 -> chain of 8 NOTs -> out = 0; want 1: any of the gates fixes it.
	test := circuit.Test{Vector: []bool{false}, Output: out, Want: true}
	if !Validate(c, circuit.TestSet{test}, gates[:7]) {
		t.Fatal("7-gate correction rejected")
	}
	if !Validate(c, circuit.TestSet{test}, gates) {
		t.Fatal("8-gate correction rejected")
	}
}

func TestAssignmentWord(t *testing.T) {
	// Lane l of assignmentWord(0, j) is bit j of l.
	for j := 0; j < 6; j++ {
		w := assignmentWord(0, j)
		for l := uint(0); l < 64; l++ {
			want := l>>uint(j)&1 == 1
			if (w>>l&1 == 1) != want {
				t.Fatalf("j=%d lane %d", j, l)
			}
		}
	}
	// High bits are constant per 64-chunk.
	if assignmentWord(64, 6) != ^uint64(0) || assignmentWord(128, 6) != 0 {
		t.Fatal("chunk bits wrong")
	}
}

func TestEssentialDefinition(t *testing.T) {
	c, test, names := fig5b(t)
	tests := circuit.TestSet{test}
	if !Essential(c, tests, gateSet(names, "A", "B")) {
		t.Fatal("{A,B} should be essential")
	}
	// {A,B,E} is valid but E alone suffices -> not essential.
	if Essential(c, tests, gateSet(names, "A", "B", "E")) {
		t.Fatal("{A,B,E} wrongly essential")
	}
	if !Essential(c, tests, gateSet(names, "E")) {
		t.Fatal("{E} should be essential (singleton on failing test)")
	}
	if Essential(c, tests, gateSet(names, "A")) {
		t.Fatal("{A} is not even valid")
	}
}

func TestExtractFunctions(t *testing.T) {
	// Faulty AND that should be OR: extraction must demand output 1 on
	// the minterms the tests exercise where OR differs from AND.
	b := circuit.NewBuilder("exf")
	x := b.Input("x")
	y := b.Input("y")
	g := b.Gate(logic.And, "g", x, y) // should be OR
	o := b.Gate(logic.Buf, "o", g)
	b.Output(o)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Failing tests: (1,0) and (0,1) should produce 1.
	tests := circuit.TestSet{
		{Vector: []bool{true, false}, Output: o, Want: true},
		{Vector: []bool{false, true}, Output: o, Want: true},
	}
	res, err := BSAT(c, tests, BSATOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	var gSol *Correction
	for i := range res.Solutions {
		if res.Solutions[i].Contains(g) {
			gSol = &res.Solutions[i]
		}
	}
	if gSol == nil {
		t.Fatalf("no solution at g: %v", res.Solutions)
	}
	funcs, err := res.ExtractFunctions(*gSol)
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) != 1 || funcs[0].Gate != g {
		t.Fatalf("funcs %+v", funcs)
	}
	gf := funcs[0]
	if !gf.Agrees {
		t.Fatal("consistent repair flagged inconsistent")
	}
	// Minterm 1 = (x=1,y=0), minterm 2 = (x=0,y=1): both must be 1.
	for _, m := range []int{1, 2} {
		v, ok := gf.Care[m]
		if !ok || !v {
			t.Fatalf("minterm %d: got (%v,%v), want required 1 (care map %v)", m, v, ok, gf.Care)
		}
	}
}

// TestExtractFunctionsSkipsCopiesOutsideCone: a test copy encodes only its
// failing output's fanin cone, so a corrected gate outside that cone has
// no correction value there and contributes no care minterm from it.
func TestExtractFunctionsSkipsCopiesOutsideCone(t *testing.T) {
	b := circuit.NewBuilder("exfcone")
	x := b.Input("x")
	y := b.Input("y")
	z := b.Input("z")
	g := b.Gate(logic.And, "g", x, y) // should be OR
	h := b.Gate(logic.Not, "h", z)    // should be BUF
	o1 := b.Gate(logic.Buf, "o1", g)
	o2 := b.Gate(logic.Buf, "o2", h)
	b.Output(o1)
	b.Output(o2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tests := circuit.TestSet{
		{Vector: []bool{true, false, false}, Output: o1, Want: true}, // g's cone
		{Vector: []bool{false, false, true}, Output: o2, Want: true}, // g outside
	}
	res, err := BSAT(c, tests, BSATOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if y := res.Session().GateVars[1][g]; y != cnf.NoVar {
		t.Fatalf("gate %d outside copy 1's cone has variable %d", g, y)
	}
	funcs, err := res.ExtractFunctions(NewCorrection([]int{g, h}))
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) != 2 {
		t.Fatalf("funcs %+v", funcs)
	}
	// g sees only copy 0 (x=1,y=0), h only copy 1 (z=1): minterm 1 each.
	for _, gf := range funcs {
		if len(gf.Care) != 1 || !gf.Care[1] || !gf.Agrees {
			t.Fatalf("gate %d: care %v agrees=%v, want exactly minterm 1 required 1", gf.Gate, gf.Care, gf.Agrees)
		}
	}
}

func TestExtractFunctionsRejectsNonSolution(t *testing.T) {
	c, test, names := fig5a(t)
	res, err := BSAT(c, circuit.TestSet{test}, BSATOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.ExtractFunctions(NewCorrection([]int{names["B"]})); err == nil {
		t.Fatal("extraction over an invalid correction must fail")
	}
}

// TestTable1CandidateCounts: BSIM returns O(|I|) candidates while COV
// and BSAT return size-<=k corrections only (feature matrix, Table 1).
func TestTable1CandidateCounts(t *testing.T) {
	c, test, _ := fig5a(t)
	tests := circuit.TestSet{test}
	bsim := BSIM(c, tests, PTOptions{})
	if len(bsim.Union()) == 0 {
		t.Fatal("BSIM empty")
	}
	for _, k := range []int{1, 2} {
		cov, err := COV(c, tests, CovOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range cov.Solutions {
			if s.Size() > k {
				t.Fatalf("COV solution %v exceeds k=%d", s, k)
			}
		}
		bsat, err := BSAT(c, tests, BSATOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range bsat.Solutions {
			if s.Size() > k {
				t.Fatalf("BSAT solution %v exceeds k=%d", s, k)
			}
		}
	}
}

func TestPTDeterminismAndSeeds(t *testing.T) {
	c, test, _ := fig5a(t)
	s := sim.New(c)
	a := PathTrace(s, test, PTOptions{Policy: MarkFirst})
	b := PathTrace(s, test, PTOptions{Policy: MarkFirst})
	if NewCorrection(a).Key() != NewCorrection(b).Key() {
		t.Fatal("MarkFirst nondeterministic")
	}
	r1 := PathTrace(s, test, PTOptions{Policy: MarkRandom, Seed: 1})
	r1b := PathTrace(s, test, PTOptions{Policy: MarkRandom, Seed: 1})
	if NewCorrection(r1).Key() != NewCorrection(r1b).Key() {
		t.Fatal("MarkRandom not seed-deterministic")
	}
}

func TestBSIMResultHelpers(t *testing.T) {
	c, test, names := fig5a(t)
	res := BSIM(c, circuit.TestSet{test, test}, PTOptions{})
	inter := res.Intersection()
	if len(inter) != 3 {
		t.Fatalf("intersection %v", inter)
	}
	gmax := res.MaxMarked()
	if len(gmax) != 3 {
		t.Fatalf("Gmax %v", gmax)
	}
	_ = names
}

func TestBadOptionsRejected(t *testing.T) {
	c, test, _ := fig5a(t)
	tests := circuit.TestSet{test}
	if _, err := COV(c, tests, CovOptions{K: 0}); err == nil {
		t.Fatal("COV k=0 accepted")
	}
	if _, err := BSAT(c, tests, BSATOptions{K: 0}); err == nil {
		t.Fatal("BSAT k=0 accepted")
	}
	if _, err := COV(c, nil, CovOptions{K: 1}); err == nil {
		t.Fatal("COV empty tests accepted")
	}
	if _, err := BSAT(c, nil, BSATOptions{K: 1}); err == nil {
		t.Fatal("BSAT empty tests accepted")
	}
}

func TestCorrectionHelpers(t *testing.T) {
	a := NewCorrection([]int{3, 1, 2})
	if a.Key() != "1,2,3" || a.Size() != 3 || a.String() != "{1,2,3}" {
		t.Fatalf("correction basics: %v %q", a, a.Key())
	}
	if !a.Contains(2) || a.Contains(5) {
		t.Fatal("Contains")
	}
	b := NewCorrection([]int{1, 3})
	if !b.SubsetOf(a) || a.SubsetOf(b) {
		t.Fatal("SubsetOf")
	}
	ss := &SolutionSet{Solutions: []Correction{a}}
	if !ss.ContainsKey(NewCorrection([]int{2, 1, 3})) {
		t.Fatal("ContainsKey")
	}
	if SameSolutions(ss, &SolutionSet{Solutions: []Correction{b}}) {
		t.Fatal("SameSolutions false positive")
	}
}
