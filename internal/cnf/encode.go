// Package cnf translates circuits into CNF: Tseitin encodings of gate
// functions, the diagnosis instance of the paper's Figure 2/3 (one circuit
// copy per test, a correction multiplexer per candidate gate with a select
// line shared across copies, and a cardinality bound over the selects),
// and the one-way totalizer that bounds the selects.
package cnf

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sat"
)

// EncodeCopy adds one Tseitin copy of the circuit to the solver and
// returns the variable of every gate output, indexed by gate ID.
func EncodeCopy(s *sat.Solver, c *circuit.Circuit) []sat.Var {
	return EncodeCopyWithInputs(s, c, nil)
}

// EncodeCopyWithInputs encodes a circuit copy reusing the given input
// variables (indexed by input position); nil allocates fresh ones. Shared
// input variables are how miters (e.g. distinguishing-test ATPG) tie two
// circuits to the same stimulus.
func EncodeCopyWithInputs(s *sat.Solver, c *circuit.Circuit, inputs []sat.Var) []sat.Var {
	vars := make([]sat.Var, len(c.Gates))
	for i := range c.Gates {
		if pos := c.InputPos(i); pos >= 0 && inputs != nil {
			vars[i] = inputs[pos]
			continue
		}
		vars[i] = s.NewVar()
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Kind == logic.Input {
			continue
		}
		fan := make([]sat.Lit, len(g.Fanin))
		for j, f := range g.Fanin {
			fan[j] = sat.PosLit(vars[f])
		}
		EncodeGate(s, g, sat.PosLit(vars[i]), fan)
	}
	return vars
}

// EncodeGate adds the Tseitin clauses tying literal out to the gate
// function over the fanin literals.
func EncodeGate(s *sat.Solver, g *circuit.Gate, out sat.Lit, fan []sat.Lit) {
	switch g.Kind {
	case logic.Const0:
		s.AddClause(out.Neg())
	case logic.Const1:
		s.AddClause(out)
	case logic.Buf:
		encodeEq(s, out, fan[0])
	case logic.Not:
		encodeEq(s, out, fan[0].Neg())
	case logic.And:
		encodeAnd(s, out, fan)
	case logic.Nand:
		encodeAnd(s, out.Neg(), fan)
	case logic.Or:
		encodeOr(s, out, fan)
	case logic.Nor:
		encodeOr(s, out.Neg(), fan)
	case logic.Xor:
		encodeXorChain(s, out, fan)
	case logic.Xnor:
		encodeXorChain(s, out.Neg(), fan)
	case logic.TableKind:
		encodeTable(s, g.Table, out, fan)
	default:
		panic(fmt.Sprintf("cnf: cannot encode gate kind %v", g.Kind))
	}
}

func encodeEq(s *sat.Solver, a, b sat.Lit) {
	s.AddClause(a.Neg(), b)
	s.AddClause(a, b.Neg())
}

// encodeAnd: out <-> AND(fan).
func encodeAnd(s *sat.Solver, out sat.Lit, fan []sat.Lit) {
	long := make([]sat.Lit, 0, len(fan)+1)
	for _, f := range fan {
		s.AddClause(out.Neg(), f)
		long = append(long, f.Neg())
	}
	long = append(long, out)
	s.AddClause(long...)
}

// encodeOr: out <-> OR(fan).
func encodeOr(s *sat.Solver, out sat.Lit, fan []sat.Lit) {
	long := make([]sat.Lit, 0, len(fan)+1)
	for _, f := range fan {
		s.AddClause(out, f.Neg())
		long = append(long, f)
	}
	long = append(long, out.Neg())
	s.AddClause(long...)
}

// encodeXor2: out <-> a XOR b.
func encodeXor2(s *sat.Solver, out, a, b sat.Lit) {
	s.AddClause(out.Neg(), a, b)
	s.AddClause(out.Neg(), a.Neg(), b.Neg())
	s.AddClause(out, a.Neg(), b)
	s.AddClause(out, a, b.Neg())
}

// encodeXorChain ties out to the parity of the fanins via fresh chain
// variables (linear clauses instead of the exponential direct encoding).
func encodeXorChain(s *sat.Solver, out sat.Lit, fan []sat.Lit) {
	switch len(fan) {
	case 1:
		encodeEq(s, out, fan[0])
		return
	case 2:
		encodeXor2(s, out, fan[0], fan[1])
		return
	}
	acc := fan[0]
	for i := 1; i < len(fan)-1; i++ {
		t := sat.PosLit(s.NewVar())
		encodeXor2(s, t, acc, fan[i])
		acc = t
	}
	encodeXor2(s, out, acc, fan[len(fan)-1])
}

// encodeTable enumerates minterms: for every input assignment, a clause
// forces the tabulated output value. Exponential in fanin, which is
// bounded by logic.MaxTableInputs.
func encodeTable(s *sat.Solver, t *logic.Table, out sat.Lit, fan []sat.Lit) {
	if len(fan) != t.N {
		panic("cnf: table arity mismatch")
	}
	if t.N == 0 {
		if t.Get(0) {
			s.AddClause(out)
		} else {
			s.AddClause(out.Neg())
		}
		return
	}
	clause := make([]sat.Lit, 0, t.N+1)
	for m := 0; m < t.Rows(); m++ {
		clause = clause[:0]
		for i, f := range fan {
			if m>>uint(i)&1 == 1 {
				clause = append(clause, f.Neg())
			} else {
				clause = append(clause, f)
			}
		}
		if t.Get(m) {
			clause = append(clause, out)
		} else {
			clause = append(clause, out.Neg())
		}
		s.AddClause(clause...)
	}
}

// EncodeMux adds y <-> (s ? c : z), the correction multiplexer of the
// paper's Figure 2(a).
func EncodeMux(solver *sat.Solver, y, sel, c, z sat.Lit) {
	solver.AddClause(sel, y.Neg(), z)
	solver.AddClause(sel, y, z.Neg())
	solver.AddClause(sel.Neg(), y.Neg(), c)
	solver.AddClause(sel.Neg(), y, c.Neg())
}
