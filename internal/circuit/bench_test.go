package circuit

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

const sampleBench = `# tiny
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
y = NOT(n1)
`

func TestParseBenchBasic(t *testing.T) {
	c, err := ParseBench("tiny", strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 2 || len(c.Outputs) != 1 || c.NumInternal() != 2 {
		t.Fatalf("shape: %v", c)
	}
	y, ok := c.GateByName("y")
	if !ok || c.Gates[y].Kind != logic.Not || !c.IsOutput(y) {
		t.Fatal("output gate wrong")
	}
}

func TestParseBenchForwardReferences(t *testing.T) {
	// y defined before its fanin n1.
	src := `INPUT(a)
OUTPUT(y)
y = NOT(n1)
n1 = BUFF(a)
`
	c, err := ParseBench("fwd", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.CheckTopological() != -1 {
		t.Fatal("parser emitted non-topological order")
	}
}

func TestParseBenchDFFConversion(t *testing.T) {
	src := `INPUT(x)
OUTPUT(o)
q = DFF(d)
d = NAND(x, q)
o = NOT(q)
`
	c, err := ParseBench("seq", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// Full scan: q becomes a pseudo-input, d a pseudo-output.
	if len(c.Inputs) != 2 {
		t.Fatalf("inputs = %d, want 2 (x + pseudo q)", len(c.Inputs))
	}
	if len(c.Outputs) != 2 {
		t.Fatalf("outputs = %d, want 2 (o + pseudo d)", len(c.Outputs))
	}
	q, _ := c.GateByName("q")
	if !c.IsInput(q) {
		t.Fatal("DFF output not converted to input")
	}
	d, _ := c.GateByName("d")
	if !c.IsOutput(d) {
		t.Fatal("DFF data not converted to output")
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []string{
		"INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n",             // unknown gate
		"INPUT(a)\nOUTPUT(y)\ny NOT(a)\n",                // missing '='
		"INPUT(a)\nOUTPUT(y)\ny = NOT(z)\n",              // undefined signal
		"INPUT(a)\nOUTPUT(y)\ny = NOT(y)\n",              // combinational cycle
		"INPUT(a)\nINPUT(a)\nOUTPUT(a)\n",                // duplicate input
		"INPUT(a)\nOUTPUT(missing)\na2 = NOT(a)\n",       // undefined output
		"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n", // double definition
		"INPUT(a\nOUTPUT(y)\ny = NOT(a)\n",               // malformed declaration
	}
	for _, src := range cases {
		if _, err := ParseBench("bad", strings.NewReader(src)); err == nil {
			t.Fatalf("no error for:\n%s", src)
		}
	}
}

func TestParseBenchCycleThroughDFFAllowed(t *testing.T) {
	// Feedback through a flip-flop is sequential, not combinational.
	src := `INPUT(x)
OUTPUT(q)
q = DFF(d)
d = NAND(x, q)
`
	if _, err := ParseBench("loop", strings.NewReader(src)); err != nil {
		t.Fatalf("DFF feedback rejected: %v", err)
	}
}

func TestWriteBenchRoundTrip(t *testing.T) {
	c, err := ParseBench("tiny", strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench("tiny2", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, sb.String())
	}
	if c2.NumGates() != c.NumGates() || len(c2.Outputs) != len(c.Outputs) {
		t.Fatal("round trip changed shape")
	}
}

func TestWriteBenchRejectsTables(t *testing.T) {
	b := NewBuilder("tab")
	a := b.Input("a")
	g := b.TableGate("g", logic.TableOf(logic.Not, 1), a)
	b.Output(g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteBench(&sb, c); err == nil {
		t.Fatal("table gate serialized to bench")
	}
}

func TestParseBenchComments(t *testing.T) {
	src := "# header\nINPUT(a) # trailing\n\nOUTPUT(y)\ny = BUFF(a) # gate\n"
	c, err := ParseBench("comments", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 2 {
		t.Fatalf("gates = %d", c.NumGates())
	}
}

// TestParseBenchLineLimit pins the scanner's 1 MiB line limit: a line
// that fits in the buffer with its newline parses, a longer one fails
// with the scanner's error.
func TestParseBenchLineLimit(t *testing.T) {
	long := func(n int) string {
		// A comment line of exactly n bytes (newline excluded).
		return "INPUT(a)\n#" + strings.Repeat("x", n-1) + "\nOUTPUT(y)\ny = NOT(a)\n"
	}
	c, err := ParseBench("long", strings.NewReader(long(1<<20-1)))
	if err != nil {
		t.Fatalf("line of 1 MiB - 1 bytes rejected: %v", err)
	}
	if c.NumGates() != 2 {
		t.Fatalf("gates = %d", c.NumGates())
	}
	_, err = ParseBench("long", strings.NewReader(long(1<<20+1)))
	if err == nil || err.Error() != "long: bufio.Scanner: token too long" {
		t.Fatalf("line of 1 MiB + 1 bytes: err = %v, want the scanner's token-too-long error", err)
	}
}

// TestParseBenchDeclarationCase: INPUT/OUTPUT keywords match in any
// case, and a malformed declaration keeps its error message.
func TestParseBenchDeclarationCase(t *testing.T) {
	c, err := ParseBench("case", strings.NewReader("input(a)\nInPuT(b)\noutput(y)\ny = nand(a, b)\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 2 || len(c.Outputs) != 1 {
		t.Fatalf("shape: %v", c)
	}
	_, err = ParseBench("bad", strings.NewReader("Output(\nINPUT(a)\n"))
	if err == nil || err.Error() != `bad:1: malformed declaration "Output("` {
		t.Fatalf("err = %v", err)
	}
	// Too short to hold the keyword: an assignment error, as before.
	_, err = ParseBench("bad", strings.NewReader("INPU\n"))
	if err == nil || err.Error() != `bad:1: expected assignment, got "INPU"` {
		t.Fatalf("err = %v", err)
	}
}
