package circuit

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

// buildDiamond returns a small reconvergent circuit:
//
//	a, b inputs; n1 = NAND(a,b); n2 = NOT(a); o1 = AND(n1, n2) (output)
func buildDiamond(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("diamond")
	a := b.Input("a")
	bi := b.Input("b")
	n1 := b.Gate(logic.Nand, "n1", a, bi)
	n2 := b.Gate(logic.Not, "n2", a)
	o1 := b.Gate(logic.And, "o1", n1, n2)
	b.Output(o1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuilderBasics(t *testing.T) {
	c := buildDiamond(t)
	if c.NumGates() != 5 || len(c.Inputs) != 2 || len(c.Outputs) != 1 {
		t.Fatalf("unexpected shape: %v", c)
	}
	if c.NumInternal() != 3 {
		t.Fatalf("internal = %d", c.NumInternal())
	}
	id, ok := c.GateByName("n1")
	if !ok || c.Gates[id].Kind != logic.Nand {
		t.Fatal("GateByName failed")
	}
	if c.CheckTopological() != -1 {
		t.Fatal("not topological")
	}
	a, _ := c.GateByName("a")
	if c.InputPos(a) != 0 || !c.IsInput(a) {
		t.Fatal("input bookkeeping")
	}
	o1, _ := c.GateByName("o1")
	if !c.IsOutput(o1) || c.IsOutput(a) {
		t.Fatal("output bookkeeping")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	a := b.Input("a")
	b.Input("a") // duplicate
	b.Gate(logic.And, "g", a, a)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("expected duplicate error, got %v", err)
	}

	b2 := NewBuilder("bad2")
	x := b2.Input("x")
	b2.Gate(logic.Not, "n", x, x) // wrong arity
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected arity error")
	}

	b3 := NewBuilder("bad3")
	b3.Input("x")
	if _, err := b3.Build(); err == nil || !strings.Contains(err.Error(), "no outputs") {
		t.Fatalf("expected no-outputs error, got %v", err)
	}

	b4 := NewBuilder("bad4")
	y := b4.Input("y")
	b4.Gate(logic.Buf, "g", y)
	b4.Output(99)
	if _, err := b4.Build(); err == nil {
		t.Fatal("expected out-of-range output error")
	}

	b5 := NewBuilder("bad5")
	z := b5.Input("z")
	g := b5.Gate(logic.Buf, "g", z)
	b5.Output(g)
	b5.Output(g)
	if _, err := b5.Build(); err == nil {
		t.Fatal("expected double-output error")
	}
}

func TestBuilderTableGate(t *testing.T) {
	b := NewBuilder("tab")
	a := b.Input("a")
	bi := b.Input("b")
	tab := logic.TableOf(logic.Xor, 2)
	g := b.TableGate("g", tab, a, bi)
	b.Output(g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[g].Table == nil {
		t.Fatal("table lost")
	}
	// Arity mismatch must fail.
	b2 := NewBuilder("tab2")
	x := b2.Input("x")
	b2.TableGate("g", logic.TableOf(logic.Xor, 2), x)
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected table-arity error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := buildDiamond(t)
	cl := c.Clone()
	n1, _ := cl.GateByName("n1")
	cl.Gates[n1].Kind = logic.Or
	orig, _ := c.GateByName("n1")
	if c.Gates[orig].Kind != logic.Nand {
		t.Fatal("clone aliases original")
	}
	if cl.Name != c.Name {
		t.Fatal("name not copied")
	}
}

func TestLevels(t *testing.T) {
	c := buildDiamond(t)
	lv := c.Levels()
	o1, _ := c.GateByName("o1")
	n1, _ := c.GateByName("n1")
	a, _ := c.GateByName("a")
	if lv[a] != 0 || lv[n1] != 1 || lv[o1] != 2 {
		t.Fatalf("levels %v", lv)
	}
	if c.Stat().Levels != 2 {
		t.Fatalf("stat levels = %d", c.Stat().Levels)
	}
}

func TestCones(t *testing.T) {
	c := buildDiamond(t)
	o1, _ := c.GateByName("o1")
	a, _ := c.GateByName("a")
	b, _ := c.GateByName("b")
	n2, _ := c.GateByName("n2")
	in := c.FaninCone(o1)
	for g, want := range map[int]bool{o1: true, a: true, b: true, n2: true} {
		if in[g] != want {
			t.Fatalf("fanin cone gate %d = %v, want %v", g, in[g], want)
		}
	}
	out := c.FanoutCone(a)
	if !out[o1] || !out[n2] || out[b] {
		t.Fatalf("fanout cone wrong: %v", out)
	}
}

func TestDistances(t *testing.T) {
	c := buildDiamond(t)
	n1, _ := c.GateByName("n1")
	o1, _ := c.GateByName("o1")
	a, _ := c.GateByName("a")
	n2, _ := c.GateByName("n2")
	d := c.Distances([]int{n1})
	if d[n1] != 0 || d[o1] != 1 || d[a] != 1 {
		t.Fatalf("distances %v", d)
	}
	// n2 is two steps away via a or o1.
	if d[n2] != 2 {
		t.Fatalf("d[n2] = %d", d[n2])
	}
	// Multiple sources take the minimum.
	d2 := c.Distances([]int{n1, n2})
	if d2[n2] != 0 || d2[o1] != 1 {
		t.Fatalf("multi-source distances %v", d2)
	}
	// Empty source set: all unreachable.
	d3 := c.Distances(nil)
	for _, v := range d3 {
		if v != -1 {
			t.Fatalf("expected -1, got %v", d3)
		}
	}
}

func TestTestSetHelpers(t *testing.T) {
	ts := TestSet{
		{Vector: []bool{true}, Output: 3, Want: true},
		{Vector: []bool{false}, Output: 1, Want: false},
		{Vector: []bool{true}, Output: 3, Want: false},
	}
	if got := ts.Prefix(2); len(got) != 2 {
		t.Fatalf("prefix: %d", len(got))
	}
	if got := ts.Prefix(99); len(got) != 3 {
		t.Fatalf("over-prefix: %d", len(got))
	}
	outs := ts.Outputs()
	if len(outs) != 2 || outs[0] != 1 || outs[1] != 3 {
		t.Fatalf("outputs %v", outs)
	}
	cl := ts[0].Clone()
	cl.Vector[0] = false
	if ts[0].Vector[0] != true {
		t.Fatal("clone aliases")
	}
}
