package circuit

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/logic"
)

// ParseBench reads a circuit in the ISCAS .bench netlist format:
//
//	# comment
//	INPUT(a)
//	OUTPUT(y)
//	g10 = NAND(a, b)
//	s5  = DFF(g10)
//
// Flip-flops (DFF/DFFSR first operand) are converted to the standard
// full-scan combinational model: the DFF output becomes a pseudo-primary
// input and its data input becomes a pseudo-primary output. Forward
// references are allowed; combinational cycles are rejected.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	type rawGate struct {
		kind  logic.Kind
		fanin []string
		line  int
	}
	type ffPair struct{ q, d string }
	defs := make(map[string]rawGate)
	var inputs, outputs, defOrder []string
	var ffs []ffPair // flip-flops: output (Q) and data (D) signal names

	sc := bufio.NewScanner(r)
	// Lines may be up to 1 MiB long; the buffer starts small and grows
	// only as far as the longest line needs.
	sc.Buffer(nil, 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case hasPrefixFold(line, "INPUT("):
			arg, err := benchArg(line)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, lineno, err)
			}
			inputs = append(inputs, arg)
		case hasPrefixFold(line, "OUTPUT("):
			arg, err := benchArg(line)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, lineno, err)
			}
			outputs = append(outputs, arg)
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("%s:%d: expected assignment, got %q", name, lineno, line)
			}
			lhs := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			op, args, err := benchCall(rhs)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, lineno, err)
			}
			if _, dup := defs[lhs]; dup {
				return nil, fmt.Errorf("%s:%d: signal %q defined twice", name, lineno, lhs)
			}
			upper := strings.ToUpper(op)
			if upper == "DFF" || upper == "DFFSR" {
				if len(args) == 0 {
					return nil, fmt.Errorf("%s:%d: DFF with no data input", name, lineno)
				}
				// Full-scan conversion: FF output -> pseudo-PI, data -> pseudo-PO.
				inputs = append(inputs, lhs)
				ffs = append(ffs, ffPair{q: lhs, d: args[0]})
				continue
			}
			kind, ok := logic.KindByName(op)
			if !ok || kind == logic.Input || kind == logic.TableKind {
				return nil, fmt.Errorf("%s:%d: unknown gate type %q", name, lineno, op)
			}
			defs[lhs] = rawGate{kind: kind, fanin: args, line: lineno}
			defOrder = append(defOrder, lhs)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}

	b := NewBuilder(name)
	ids := make(map[string]int, len(defs)+len(inputs))
	for _, in := range inputs {
		if _, dup := ids[in]; dup {
			return nil, fmt.Errorf("%s: input %q declared twice", name, in)
		}
		if _, isGate := defs[in]; isGate {
			return nil, fmt.Errorf("%s: signal %q is both an input and a gate", name, in)
		}
		ids[in] = b.Input(in)
	}

	// Emit gates in dependency order (DFS over the forward-reference graph).
	state := make(map[string]int, len(defs)) // 0 new, 1 visiting, 2 done
	var emit func(sig string, via string) error
	emit = func(sig, via string) error {
		if _, ok := ids[sig]; ok {
			return nil
		}
		def, ok := defs[sig]
		if !ok {
			return fmt.Errorf("%s: undefined signal %q (used by %q)", name, sig, via)
		}
		switch state[sig] {
		case 1:
			return fmt.Errorf("%s: combinational cycle through %q", name, sig)
		case 2:
			return nil
		}
		state[sig] = 1
		fan := make([]int, len(def.fanin))
		for i, f := range def.fanin {
			if err := emit(f, sig); err != nil {
				return err
			}
			fan[i] = ids[f]
		}
		state[sig] = 2
		ids[sig] = b.Gate(def.kind, sig, fan...)
		return nil
	}
	for _, sig := range defOrder {
		if err := emit(sig, ""); err != nil {
			return nil, err
		}
	}
	seenOut := make(map[int]bool)
	addOut := func(sig string) error {
		id, ok := ids[sig]
		if !ok {
			return fmt.Errorf("%s: output %q never defined", name, sig)
		}
		if !seenOut[id] {
			seenOut[id] = true
			b.Output(id)
		}
		return nil
	}
	for _, out := range outputs {
		if err := addOut(out); err != nil {
			return nil, err
		}
	}
	for _, ff := range ffs {
		if err := addOut(ff.d); err != nil {
			return nil, err
		}
	}
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	for _, ff := range ffs {
		q, d := ids[ff.q], ids[ff.d]
		c.Latches = append(c.Latches, Latch{Q: q, D: d})
	}
	return c, nil
}

// hasPrefixFold reports whether s begins with prefix, ignoring case.
func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

func benchArg(line string) (string, error) {
	open := strings.IndexByte(line, '(')
	close := strings.LastIndexByte(line, ')')
	if open < 0 || close < open {
		return "", fmt.Errorf("malformed declaration %q", line)
	}
	arg := strings.TrimSpace(line[open+1 : close])
	if arg == "" {
		return "", fmt.Errorf("empty declaration %q", line)
	}
	return arg, nil
}

func benchCall(rhs string) (op string, args []string, err error) {
	open := strings.IndexByte(rhs, '(')
	close := strings.LastIndexByte(rhs, ')')
	if open < 0 || close < open {
		return "", nil, fmt.Errorf("malformed gate expression %q", rhs)
	}
	op = strings.TrimSpace(rhs[:open])
	inner := rhs[open+1 : close]
	if strings.TrimSpace(inner) == "" {
		return op, nil, nil
	}
	for _, part := range strings.Split(inner, ",") {
		p := strings.TrimSpace(part)
		if p == "" {
			return "", nil, fmt.Errorf("empty operand in %q", rhs)
		}
		args = append(args, p)
	}
	return op, args, nil
}

// WriteBench renders the circuit in .bench format. Truth-table gates have
// no bench equivalent and are rejected. Pseudo-inputs and -outputs from
// full-scan conversion are emitted as plain INPUT/OUTPUT declarations.
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	for _, in := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gates[in].Name)
	}
	for _, out := range c.Outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gates[out].Name)
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Kind == logic.Input {
			continue
		}
		if g.Kind == logic.TableKind {
			return fmt.Errorf("circuit %q: gate %q: truth-table gates cannot be written as .bench", c.Name, g.Name)
		}
		names := make([]string, len(g.Fanin))
		for j, f := range g.Fanin {
			names[j] = c.Gates[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, benchKindName(g.Kind), strings.Join(names, ", "))
	}
	return bw.Flush()
}

func benchKindName(k logic.Kind) string {
	switch k {
	case logic.Not:
		return "NOT"
	case logic.Buf:
		return "BUFF"
	default:
		return k.String()
	}
}

// Test is one diagnosis stimulus per Definition 1 of the paper: a triple
// (t, o, v) of an input vector, the primary output where the vector
// exposes an erroneous value, and the correct value at that output.
type Test struct {
	Vector []bool // one value per circuit input, by position in Circuit.Inputs
	Output int    // gate ID of the erroneous (pseudo-)primary output
	Want   bool   // correct value v at Output
}

// Clone returns a deep copy of the test.
func (t Test) Clone() Test {
	return Test{Vector: append([]bool(nil), t.Vector...), Output: t.Output, Want: t.Want}
}

// TestSet is an ordered collection of tests (Definition 2).
type TestSet []Test

// Prefix returns the first m tests, the sharing discipline of the paper's
// experiments ("a part of the same test-set has been used").
func (ts TestSet) Prefix(m int) TestSet {
	if m > len(ts) {
		m = len(ts)
	}
	return ts[:m]
}

// Outputs returns the sorted distinct erroneous outputs in the set.
func (ts TestSet) Outputs() []int {
	seen := make(map[int]bool)
	var outs []int
	for _, t := range ts {
		if !seen[t.Output] {
			seen[t.Output] = true
			outs = append(outs, t.Output)
		}
	}
	sort.Ints(outs)
	return outs
}
