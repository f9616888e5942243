package cnf

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/sim"
)

// TestGateEncodingsExhaustive checks every gate kind at arities 1-3
// against the truth table: the CNF with inputs fixed must force the
// output variable to the function value.
func TestGateEncodingsExhaustive(t *testing.T) {
	kinds := []logic.Kind{logic.Buf, logic.Not, logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor}
	for _, k := range kinds {
		maxAr := 3
		if k == logic.Buf || k == logic.Not {
			maxAr = 1
		}
		for ar := 1; ar <= maxAr; ar++ {
			for m := 0; m < 1<<uint(ar); m++ {
				s := sat.New()
				fan := make([]sat.Lit, ar)
				in := make([]bool, ar)
				for i := range fan {
					fan[i] = sat.PosLit(s.NewVar())
					in[i] = m>>uint(i)&1 == 1
				}
				out := sat.PosLit(s.NewVar())
				g := &circuit.Gate{Kind: k}
				EncodeGate(s, g, out, fan, sat.LitUndef)
				for i, f := range fan {
					if in[i] {
						s.AddClause(f)
					} else {
						s.AddClause(f.Neg())
					}
				}
				if st := s.Solve(); st != sat.StatusSat {
					t.Fatalf("%v/%d minterm %d: %v", k, ar, m, st)
				}
				want := logic.EvalBit(k, in)
				if got := s.ValueLit(out) == sat.LTrue; got != want {
					t.Fatalf("%v/%d minterm %d: CNF %v, truth %v", k, ar, m, got, want)
				}
				// The opposite output value must be unsatisfiable.
				s.AddClause(sat.MkLit(out.Var(), want))
				if st := s.Solve(); st != sat.StatusUnsat {
					t.Fatalf("%v/%d minterm %d: output not forced", k, ar, m)
				}
			}
		}
	}
}

func TestConstAndTableEncodings(t *testing.T) {
	s := sat.New()
	out0 := sat.PosLit(s.NewVar())
	out1 := sat.PosLit(s.NewVar())
	EncodeGate(s, &circuit.Gate{Kind: logic.Const0}, out0, nil, sat.LitUndef)
	EncodeGate(s, &circuit.Gate{Kind: logic.Const1}, out1, nil, sat.LitUndef)
	if s.Solve() != sat.StatusSat || s.ValueLit(out0) != sat.LFalse || s.ValueLit(out1) != sat.LTrue {
		t.Fatal("const encodings wrong")
	}

	// Random 3-input table, all minterms.
	rng := rand.New(rand.NewSource(4))
	tab := logic.NewTable(3)
	for m := 0; m < 8; m++ {
		tab.Set(m, rng.Intn(2) == 1)
	}
	for m := 0; m < 8; m++ {
		s := sat.New()
		fan := []sat.Lit{sat.PosLit(s.NewVar()), sat.PosLit(s.NewVar()), sat.PosLit(s.NewVar())}
		out := sat.PosLit(s.NewVar())
		EncodeGate(s, &circuit.Gate{Kind: logic.TableKind, Table: tab}, out, fan, sat.LitUndef)
		for i, f := range fan {
			if m>>uint(i)&1 == 1 {
				s.AddClause(f)
			} else {
				s.AddClause(f.Neg())
			}
		}
		if s.Solve() != sat.StatusSat {
			t.Fatalf("minterm %d unsat", m)
		}
		if got := s.ValueLit(out) == sat.LTrue; got != tab.Get(m) {
			t.Fatalf("minterm %d: got %v want %v", m, got, tab.Get(m))
		}
	}
}

// TestEncodeCopyMatchesSimulation: for random circuits and vectors, the
// Tseitin copy with input units must be satisfiable with every gate
// variable equal to the simulated value.
func TestEncodeCopyMatchesSimulation(t *testing.T) {
	f := func(seed int64) bool {
		c, err := gen.Generate(gen.Spec{Name: "enc", Inputs: 6, Outputs: 3, Gates: 35, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5a))
		vec := make([]bool, len(c.Inputs))
		for i := range vec {
			vec[i] = rng.Intn(2) == 1
		}
		s := sat.New()
		vars := EncodeCopy(s, c)
		for pos, id := range c.Inputs {
			s.AddClause(sat.MkLit(vars[id], !vec[pos]))
		}
		if s.Solve() != sat.StatusSat {
			t.Logf("seed %d: UNSAT", seed)
			return false
		}
		simul := sim.New(c)
		simul.RunVector(vec)
		for g := range c.Gates {
			want := simul.OutputBit(g)
			if got := s.Value(vars[g]) == sat.LTrue; got != want {
				t.Logf("seed %d gate %d: CNF %v sim %v", seed, g, got, want)
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

// relaxGates lists one gate of every kind EncodeGate handles, at the
// arities where the encodings differ: constants, buffer and inverter,
// AND/OR with their negations, XOR chains of three and four fanins, and
// a random truth table.
func relaxGates() []*circuit.Gate {
	rng := rand.New(rand.NewSource(9))
	tab := logic.NewTable(3)
	for m := 0; m < tab.Rows(); m++ {
		tab.Set(m, rng.Intn(2) == 1)
	}
	gates := []*circuit.Gate{
		{Kind: logic.Const0}, {Kind: logic.Const1},
		{Kind: logic.Buf, Fanin: make([]int, 1)}, {Kind: logic.Not, Fanin: make([]int, 1)},
		{Kind: logic.TableKind, Table: tab, Fanin: make([]int, 3)},
	}
	for _, k := range []logic.Kind{logic.And, logic.Nand, logic.Or, logic.Nor} {
		gates = append(gates, &circuit.Gate{Kind: k, Fanin: make([]int, 3)})
	}
	for _, k := range []logic.Kind{logic.Xor, logic.Xnor} {
		gates = append(gates, &circuit.Gate{Kind: k, Fanin: make([]int, 3)}, &circuit.Gate{Kind: k, Fanin: make([]int, 4)})
	}
	return gates
}

// TestEncodeGateRelaxedSemantics: a relaxed gate is the candidate of the
// diagnosis instance. For every gate kind and fanin assignment, relax
// false forces the output to the gate function, and relax true leaves
// both output values satisfiable — the two cases of Figure 2(a)'s
// multiplexer with a free correction value.
func TestEncodeGateRelaxedSemantics(t *testing.T) {
	for _, g := range relaxGates() {
		ar := len(g.Fanin)
		for m := 0; m < 1<<uint(ar); m++ {
			s := sat.New()
			fan := make([]sat.Lit, ar)
			in := make([]bool, ar)
			assumps := make([]sat.Lit, ar)
			for i := range fan {
				fan[i] = sat.PosLit(s.NewVar())
				in[i] = m>>uint(i)&1 == 1
				assumps[i] = sat.MkLit(fan[i].Var(), !in[i])
			}
			out := sat.PosLit(s.NewVar())
			relax := sat.PosLit(s.NewVar())
			EncodeGate(s, g, out, fan, relax)
			var want bool
			if g.Kind == logic.TableKind {
				want = g.Table.Get(m)
			} else {
				want = logic.EvalBit(g.Kind, in)
			}
			for _, y := range []bool{false, true} {
				yLit := sat.MkLit(out.Var(), !y)
				if st := s.Solve(append(assumps, relax.Neg(), yLit)...); (st == sat.StatusSat) != (y == want) {
					t.Fatalf("%v/%d minterm %d, relax off, y=%v: %v (function %v)", g.Kind, ar, m, y, st, want)
				}
				if st := s.Solve(append(assumps, relax, yLit)...); st != sat.StatusSat {
					t.Fatalf("%v/%d minterm %d, relax on, y=%v: %v", g.Kind, ar, m, y, st)
				}
			}
		}
	}
}

// TestEncodeGateZeroAlloc: the encoder builds every clause in a stack
// buffer and adds it straight into the concrete solver, so a gate costs
// no allocation, plain or relaxed, once the solver's arena and watch
// lists have grown.
func TestEncodeGateZeroAlloc(t *testing.T) {
	kinds := []logic.Kind{logic.Buf, logic.Not, logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.TableKind}
	for _, k := range kinds {
		for ar := 1; ar <= 6; ar++ {
			if (k == logic.Buf || k == logic.Not) && ar > 1 {
				break
			}
			g := &circuit.Gate{Kind: k, Fanin: make([]int, ar)}
			if k == logic.TableKind {
				g.Table = logic.NewTable(ar)
				g.Table.Set(1, true)
			}
			for _, relaxed := range []bool{false, true} {
				s := sat.New()
				fan := make([]sat.Lit, ar)
				for i := range fan {
					fan[i] = sat.PosLit(s.NewVar())
				}
				out := sat.PosLit(s.NewVar())
				relax := sat.LitUndef
				if relaxed {
					relax = sat.PosLit(s.NewVar())
				}
				encode := func() { EncodeGate(s, g, out, fan, relax) }
				for i := 0; i < 4096; i++ {
					encode() // warm: grow the arena and watch lists
				}
				if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
					t.Errorf("%v/%d relaxed=%v: %v allocs/op, want 0", k, ar, relaxed, allocs)
				}
			}
		}
	}
}

// TestTotalizerExhaustive checks the ladder against direct popcounts:
// for n = 1..7 inputs, every build bound maxBound in 0..n (including the
// truncated widths < n that warm sessions build), every assignment and
// every enforced bound up to maxBound.
func TestTotalizerExhaustive(t *testing.T) {
	for n := 1; n <= 7; n++ {
		for maxBound := 0; maxBound <= n; maxBound++ {
			s := sat.New()
			lits := make([]sat.Lit, n)
			for i := range lits {
				lits[i] = sat.PosLit(s.NewVar())
			}
			ladder := AddLadder(s, lits, maxBound)
			if w := min(maxBound+1, n); ladder.Width() != w {
				t.Fatalf("n=%d maxBound=%d: width %d, want %d", n, maxBound, ladder.Width(), w)
			}
			for m := 0; m < 1<<uint(n); m++ {
				assign := make([]sat.Lit, n)
				for i, l := range lits {
					if m>>uint(i)&1 == 1 {
						assign[i] = l
					} else {
						assign[i] = l.Neg()
					}
				}
				for bound := 0; bound <= maxBound; bound++ {
					assumps := assign
					if a := ladder.AtMost(bound); a != sat.LitUndef {
						assumps = append(assign[:n:n], a)
					}
					want := sat.StatusSat
					if bits.OnesCount(uint(m)) > bound {
						want = sat.StatusUnsat
					}
					if st := s.Solve(assumps...); st != want {
						t.Fatalf("n=%d maxBound=%d m=%b bound=%d: got %v want %v", n, maxBound, m, bound, st, want)
					}
				}
			}
		}
	}
}

func TestLadderEdgeCases(t *testing.T) {
	s := sat.New()
	// Empty input set.
	l := AddLadder(s, nil, 3)
	if l.AtMost(0) != sat.LitUndef {
		t.Fatal("empty ladder should not constrain")
	}
	// Bound >= n needs no constraint.
	lits := []sat.Lit{sat.PosLit(s.NewVar()), sat.PosLit(s.NewVar())}
	l2 := AddLadder(s, lits, 5)
	if l2.AtMost(2) != sat.LitUndef || l2.AtMost(7) != sat.LitUndef {
		t.Fatal("bound >= n should be unconstrained")
	}
	if l2.AtMost(1) == sat.LitUndef {
		t.Fatal("bound 1 of 2 must constrain")
	}
	// A negative maxBound clamps to a width-1 ladder and a negative
	// AtMost bound clamps to 0 — both total, neither may panic.
	l3 := AddLadder(s, lits, -2)
	if l3.AtMost(-1) == sat.LitUndef {
		t.Fatal("AtMost(-1) on a width-1 ladder must constrain like AtMost(0)")
	}
}

// TestBuildDiagInstanceSize verifies the linear-in-m scaling claim of
// Table 1 (Θ(|cone(o)|·m) with cone-restricted copies): variables grow
// linearly in the test count.
func TestBuildDiagInstanceSize(t *testing.T) {
	c, err := gen.Generate(gen.Spec{Name: "sz", Inputs: 8, Outputs: 4, Gates: 80, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	mkTests := func(m int) circuit.TestSet {
		var ts circuit.TestSet
		for i := 0; i < m; i++ {
			vec := make([]bool, len(c.Inputs))
			ts = append(ts, circuit.Test{Vector: vec, Output: c.Outputs[i%len(c.Outputs)], Want: true})
		}
		return ts
	}
	v1, _ := BuildDiag(c, mkTests(2), DiagOptions{MaxK: 2}).Size()
	v2, _ := BuildDiag(c, mkTests(4), DiagOptions{MaxK: 2}).Size()
	v4, _ := BuildDiag(c, mkTests(8), DiagOptions{MaxK: 2}).Size()
	// Doubling m should roughly double the copy variables (selector and
	// ladder variables are shared, so growth is slightly sublinear).
	g1, g2 := v2-v1, v4-v2
	if g2 < g1*18/10 || g2 > g1*22/10 {
		t.Fatalf("variable growth not linear in m: %d, %d, %d (deltas %d, %d)", v1, v2, v4, g1, g2)
	}
}

// TestBuildDiagEncodesOutputCone pins the encoding's shape: each test
// copy allocates variables for exactly the fanin cone of its erroneous
// output — one variable per cone gate, candidates included, since a
// relaxed candidate's output is its own correction value — and nothing
// outside it. With Golden every output is constrained, so a copy covers
// the union cone.
func TestBuildDiagEncodesOutputCone(t *testing.T) {
	c, err := gen.Generate(gen.Spec{Name: "cone", Inputs: 10, Outputs: 6, Gates: 120, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	union := make([]bool, len(c.Gates))
	for _, o := range c.Outputs {
		for g, in := range c.FaninCone(o) {
			union[g] = union[g] || in
		}
	}
	vec := make([]bool, len(c.Inputs))
	for _, golden := range []*circuit.Circuit{nil, c} {
		sess := NewSession(c, DiagOptions{MaxK: 1, Golden: golden})
		strict := false
		for i, o := range c.Outputs {
			cone := c.FaninCone(o)
			if golden != nil {
				cone = union
			}
			before, _ := sess.Size()
			sess.AddTest(circuit.Test{Vector: vec, Output: o, Want: true})
			after, _ := sess.Size()
			want := 0
			for g, in := range cone {
				gv := sess.GateVars[i][g]
				switch {
				case !in && gv != NoVar:
					t.Fatalf("golden=%v copy %d: gate %d outside the cone is encoded (%d)", golden != nil, i, g, gv)
				case in && gv == NoVar:
					t.Fatalf("golden=%v copy %d: cone gate %d has no variable", golden != nil, i, g)
				}
				if in {
					want++
				} else {
					strict = true
				}
			}
			if got := after - before; got != want {
				t.Fatalf("golden=%v copy %d allocated %d variables, want %d for its cone", golden != nil, i, got, want)
			}
		}
		if !strict {
			t.Fatalf("golden=%v: every cone is the whole circuit; the test checks nothing", golden != nil)
		}
	}
}

func TestBuildDiagGoldenConstrainsAllOutputs(t *testing.T) {
	// With a golden reference, a model must reproduce the golden values
	// on every output, not only the erroneous one.
	golden, err := gen.Generate(gen.Spec{Name: "g", Inputs: 5, Outputs: 3, Gates: 30, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	vec := []bool{true, false, true, false, true}
	outs := sim.Eval(golden, vec)
	// "Faulty" = golden here; want an impossible value at output 0 to
	// force a correction; other outputs must stay pinned.
	tests := circuit.TestSet{{Vector: vec, Output: golden.Outputs[0], Want: !outs[0]}}
	inst := BuildDiag(golden, tests, DiagOptions{MaxK: 1, Golden: golden})
	st := inst.Solver.Solve(inst.AtMost(1)...)
	if st != sat.StatusSat {
		t.Fatalf("no single-gate correction found: %v", st)
	}
	for i, o := range golden.Outputs {
		if i == 0 {
			continue
		}
		v := inst.GateVars[0][o]
		if got := inst.Solver.Value(v) == sat.LTrue; got != outs[i] {
			t.Fatalf("output %d drifted under correction: got %v want %v", i, got, outs[i])
		}
	}
}

func TestSelLitLookup(t *testing.T) {
	c, err := gen.Generate(gen.Spec{Name: "sel", Inputs: 4, Outputs: 2, Gates: 12, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]bool, len(c.Inputs))
	tests := circuit.TestSet{{Vector: vec, Output: c.Outputs[0], Want: true}}
	inst := BuildDiag(c, tests, DiagOptions{MaxK: 1})
	for _, g := range c.InternalGates() {
		if _, ok := inst.SelLit(g); !ok {
			t.Fatalf("no select for internal gate %d", g)
		}
	}
	for _, g := range c.Inputs {
		if _, ok := inst.SelLit(g); ok {
			t.Fatalf("select exists for input %d", g)
		}
	}
}
