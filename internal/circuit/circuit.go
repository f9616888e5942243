// Package circuit provides the gate-level netlist substrate used by every
// diagnosis approach in the repository: the circuit model and builder, an
// ISCAS-style .bench reader/writer (with the standard full-scan conversion
// of flip-flops to pseudo-primary inputs/outputs), and the structural
// analyses the paper's algorithms rely on (topological order, levels,
// cones and gate distances).
package circuit

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/logic"
)

// Gate is one node of the netlist. Gates are identified by their index in
// Circuit.Gates. Primary inputs are gates of kind logic.Input.
type Gate struct {
	ID     int
	Name   string
	Kind   logic.Kind
	Fanin  []int        // driving gate IDs, in pin order
	Fanout []int        // driven gate IDs (derived, sorted)
	Table  *logic.Table // set iff Kind == logic.TableKind
}

// Eval computes the gate output word from the fanin value words.
func (g *Gate) Eval(in []uint64) uint64 {
	if g.Kind == logic.TableKind {
		return g.Table.EvalWord(in)
	}
	return logic.EvalWord(g.Kind, in)
}

// Circuit is an immutable combinational netlist. Gates appear in
// topological order: every fanin ID is smaller than the gate's own ID.
// Sequential designs are represented after full-scan conversion: former
// flip-flop outputs are pseudo-primary inputs (kind Input) and former
// flip-flop data inputs are listed as pseudo-primary outputs.
type Circuit struct {
	Name    string
	Gates   []Gate
	Inputs  []int // primary + pseudo-primary input gate IDs, in declaration order
	Outputs []int // observed gate IDs (primary + pseudo-primary outputs)

	// Latches records the flip-flops of a sequential design after
	// full-scan conversion: Q is the pseudo-primary input carrying the
	// present state, D the pseudo-primary output computing the next
	// state. Time-frame expansion (internal/seq) stitches D of frame f
	// to Q of frame f+1. Empty for purely combinational circuits.
	Latches []Latch

	byName map[string]int
	inPos  map[int]int // gate ID -> index in Inputs

	analysisOnce sync.Once
	analysis     *Analysis
}

// Latch is one state element of a sequential design in the full-scan
// combinational model.
type Latch struct {
	Q int // pseudo-primary input gate (flip-flop output)
	D int // pseudo-primary output gate (flip-flop data input)
}

// NumGates returns the total node count |I| (including inputs).
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumInternal returns the number of non-input gates — the correction
// candidates of the diagnosis approaches.
func (c *Circuit) NumInternal() int { return len(c.Gates) - len(c.Inputs) }

// GateByName returns the gate ID carrying the given name.
func (c *Circuit) GateByName(name string) (int, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// InputPos returns the position of gate id within Inputs, or -1.
func (c *Circuit) InputPos(id int) int {
	if p, ok := c.inPos[id]; ok {
		return p
	}
	return -1
}

// IsInput reports whether gate id is a (pseudo-)primary input.
func (c *Circuit) IsInput(id int) bool { return c.Gates[id].Kind == logic.Input }

// IsOutput reports whether gate id is observed as a (pseudo-)primary output.
func (c *Circuit) IsOutput(id int) bool {
	for _, o := range c.Outputs {
		if o == id {
			return true
		}
	}
	return false
}

// InternalGates returns the IDs of all non-input gates in topological
// order: the candidate sites where corrections may be applied.
func (c *Circuit) InternalGates() []int {
	ids := make([]int, 0, c.NumInternal())
	for i := range c.Gates {
		if c.Gates[i].Kind != logic.Input {
			ids = append(ids, i)
		}
	}
	return ids
}

// Clone returns a deep copy sharing no mutable state with c.
func (c *Circuit) Clone() *Circuit {
	n := &Circuit{
		Name:    c.Name,
		Gates:   make([]Gate, len(c.Gates)),
		Inputs:  append([]int(nil), c.Inputs...),
		Outputs: append([]int(nil), c.Outputs...),
		Latches: append([]Latch(nil), c.Latches...),
		byName:  make(map[string]int, len(c.byName)),
		inPos:   make(map[int]int, len(c.inPos)),
	}
	for i, g := range c.Gates {
		ng := g
		ng.Fanin = append([]int(nil), g.Fanin...)
		ng.Fanout = append([]int(nil), g.Fanout...)
		if g.Table != nil {
			ng.Table = g.Table.Clone()
		}
		n.Gates[i] = ng
	}
	for k, v := range c.byName {
		n.byName[k] = v
	}
	for k, v := range c.inPos {
		n.inPos[k] = v
	}
	return n
}

// Stats summarizes a circuit for reporting.
type Stats struct {
	Gates, Inputs, Outputs, Internal, Levels int
}

// Stat computes summary statistics.
func (c *Circuit) Stat() Stats {
	lv := c.Levels()
	max := 0
	for _, l := range lv {
		if l > max {
			max = l
		}
	}
	return Stats{
		Gates:    len(c.Gates),
		Inputs:   len(c.Inputs),
		Outputs:  len(c.Outputs),
		Internal: c.NumInternal(),
		Levels:   max,
	}
}

// String renders a one-line summary.
func (c *Circuit) String() string {
	s := c.Stat()
	return fmt.Sprintf("%s: %d gates (%d inputs, %d outputs, %d internal, depth %d)",
		c.Name, s.Gates, s.Inputs, s.Outputs, s.Internal, s.Levels)
}

// Builder assembles a circuit incrementally. Gates must be added after
// their fanins (netlists with forward references should use the .bench
// parser, which buffers and sorts).
type Builder struct {
	name  string
	gates []Gate
	ins   []int
	outs  []int
	names map[string]int
	err   error
}

// NewBuilder starts an empty circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, names: make(map[string]int)}
}

func (b *Builder) fail(format string, args ...interface{}) int {
	if b.err == nil {
		b.err = fmt.Errorf("circuit %q: %s", b.name, fmt.Sprintf(format, args...))
	}
	return -1
}

// Input declares a primary input and returns its gate ID.
func (b *Builder) Input(name string) int {
	id := b.add(name, logic.Input, nil, nil)
	if id >= 0 {
		b.ins = append(b.ins, id)
	}
	return id
}

// Gate adds a gate of the given kind over the fanin IDs and returns its ID.
func (b *Builder) Gate(kind logic.Kind, name string, fanin ...int) int {
	return b.add(name, kind, fanin, nil)
}

// TableGate adds a truth-table gate.
func (b *Builder) TableGate(name string, table *logic.Table, fanin ...int) int {
	return b.add(name, logic.TableKind, fanin, table)
}

func (b *Builder) add(name string, kind logic.Kind, fanin []int, table *logic.Table) int {
	if b.err != nil {
		return -1
	}
	if name == "" {
		name = fmt.Sprintf("n%d", len(b.gates))
	}
	if _, dup := b.names[name]; dup {
		return b.fail("duplicate signal name %q", name)
	}
	if !kind.Valid() {
		return b.fail("gate %q: invalid kind", name)
	}
	if kind == logic.TableKind {
		if table == nil {
			return b.fail("gate %q: table kind without table", name)
		}
		if table.N != len(fanin) {
			return b.fail("gate %q: table arity %d vs %d fanins", name, table.N, len(fanin))
		}
	}
	if !kind.ArityOK(len(fanin)) {
		return b.fail("gate %q: kind %v with %d fanins", name, kind, len(fanin))
	}
	id := len(b.gates)
	for _, f := range fanin {
		if f < 0 || f >= id {
			return b.fail("gate %q: fanin %d out of range (gates must be added after their fanins)", name, f)
		}
	}
	b.names[name] = id
	b.gates = append(b.gates, Gate{
		ID:    id,
		Name:  name,
		Kind:  kind,
		Fanin: append([]int(nil), fanin...),
		Table: table,
	})
	return id
}

// Output marks gate id as a primary output. A gate may be marked once.
func (b *Builder) Output(id int) {
	if b.err != nil {
		return
	}
	if id < 0 || id >= len(b.gates) {
		b.fail("output id %d out of range", id)
		return
	}
	for _, o := range b.outs {
		if o == id {
			b.fail("gate %q marked output twice", b.gates[id].Name)
			return
		}
	}
	b.outs = append(b.outs, id)
}

// Build finalizes the circuit, deriving fanout lists and validating
// structure. The builder must not be reused afterwards.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.outs) == 0 {
		return nil, fmt.Errorf("circuit %q: no outputs", b.name)
	}
	c := &Circuit{
		Name:    b.name,
		Gates:   b.gates,
		Inputs:  b.ins,
		Outputs: b.outs,
		byName:  b.names,
		inPos:   make(map[int]int, len(b.ins)),
	}
	for pos, id := range c.Inputs {
		c.inPos[id] = pos
	}
	for i := range c.Gates {
		for _, f := range c.Gates[i].Fanin {
			c.Gates[f].Fanout = append(c.Gates[f].Fanout, i)
		}
	}
	for i := range c.Gates {
		sort.Ints(c.Gates[i].Fanout)
	}
	return c, nil
}
