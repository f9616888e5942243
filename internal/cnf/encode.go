// Package cnf translates circuits into CNF: Tseitin encodings of gate
// functions, the diagnosis instance of the paper's Figure 2/3 (one circuit
// copy per test, and per candidate gate a select line shared across
// copies that relaxes the gate's clauses in every copy, the equivalent of
// Figure 2(a)'s correction multiplexer), and the one-way totalizer that
// bounds the selects.
package cnf

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sat"
)

// EncodeCopy adds one Tseitin copy of the circuit to the solver and
// returns the variable of every gate output, indexed by gate ID. No
// production path calls it (miters use EncodeCopyWithInputs, diagnosis
// encodes through DiagSession): it is the oracle the tests check the
// gate encoding against simulation with.
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
		EncodeGate(s, g, sat.PosLit(vars[i]), fan, sat.LitUndef)
	}
	return vars
}

// EncodeGate adds the Tseitin clauses tying literal out to the gate
// function over the fanin literals. A relax literal other than
// sat.LitUndef is appended to every clause, the XOR chain's included:
// while relax is false out equals the gate function, and while it is
// true every clause is satisfied and out is free. A candidate gate of the
// diagnosis instance is relaxed by its select line, so when selected its
// output in each copy is that copy's correction value.
func EncodeGate(s *sat.Solver, g *circuit.Gate, out sat.Lit, fan []sat.Lit, relax sat.Lit) {
	e := gateClauses{s: s, relax: relax}
	switch g.Kind {
	case logic.Const0:
		e.add(out.Neg())
	case logic.Const1:
		e.add(out)
	case logic.Buf:
		e.eq(out, fan[0])
	case logic.Not:
		e.eq(out, fan[0].Neg())
	case logic.And:
		e.and(out, fan, false)
	case logic.Nand:
		e.and(out.Neg(), fan, false)
	case logic.Or: // out <-> OR(fan) is ¬out <-> AND(¬fan)
		e.and(out.Neg(), fan, true)
	case logic.Nor:
		e.and(out, fan, true)
	case logic.Xor:
		e.xorChain(out, fan)
	case logic.Xnor:
		e.xorChain(out.Neg(), fan)
	case logic.TableKind:
		e.table(g.Table, out, fan)
	default:
		panic(fmt.Sprintf("cnf: cannot encode gate kind %v", g.Kind))
	}
}

// clauseCap sizes the stack buffers clauses are built in: the longest
// table clause (logic.MaxTableInputs fanins, out and relax) fits, so
// only AND/OR gates wider than that allocate.
const clauseCap = logic.MaxTableInputs + 2

// gateClauses emits one gate's clauses, each relaxed by relax unless it
// is sat.LitUndef.
type gateClauses struct {
	s     *sat.Solver
	relax sat.Lit
}

func (e gateClauses) add(lits ...sat.Lit) {
	var buf [clauseCap]sat.Lit
	c := append(buf[:0], lits...)
	if e.relax != sat.LitUndef {
		c = append(c, e.relax)
	}
	e.s.AddClause(c...)
}

func (e gateClauses) eq(a, b sat.Lit) {
	e.add(a.Neg(), b)
	e.add(a, b.Neg())
}

// and: out <-> AND(fan), with every fanin negated when inv is set.
func (e gateClauses) and(out sat.Lit, fan []sat.Lit, inv bool) {
	var buf [clauseCap]sat.Lit
	long := buf[:0]
	for _, f := range fan {
		if inv {
			f = f.Neg()
		}
		e.add(out.Neg(), f)
		long = append(long, f.Neg())
	}
	e.add(append(long, out)...)
}

// xor2: out <-> a XOR b.
func (e gateClauses) xor2(out, a, b sat.Lit) {
	e.add(out.Neg(), a, b)
	e.add(out.Neg(), a.Neg(), b.Neg())
	e.add(out, a.Neg(), b)
	e.add(out, a, b.Neg())
}

// xorChain ties out to the parity of the fanins via fresh chain
// variables (linear clauses instead of the exponential direct encoding).
func (e gateClauses) xorChain(out sat.Lit, fan []sat.Lit) {
	if len(fan) == 1 {
		e.eq(out, fan[0])
		return
	}
	acc := fan[0]
	for _, f := range fan[1 : len(fan)-1] {
		t := sat.PosLit(e.s.NewVar())
		e.xor2(t, acc, f)
		acc = t
	}
	e.xor2(out, acc, fan[len(fan)-1])
}

// table enumerates minterms: for every input assignment, a clause
// forces the tabulated output value. Exponential in fanin, which is
// bounded by logic.MaxTableInputs.
func (e gateClauses) table(t *logic.Table, out sat.Lit, fan []sat.Lit) {
	if len(fan) != t.N {
		panic("cnf: table arity mismatch")
	}
	var buf [clauseCap]sat.Lit
	for m := 0; m < t.Rows(); m++ {
		clause := buf[:0]
		for i, f := range fan {
			if m>>uint(i)&1 == 1 {
				f = f.Neg()
			}
			clause = append(clause, f)
		}
		o := out
		if !t.Get(m) {
			o = out.Neg()
		}
		e.add(append(clause, o)...)
	}
}
