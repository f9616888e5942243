// Package seq extends the combinational diagnosis engines to sequential
// circuits by time-frame expansion, the application the paper points to
// with "[BSAT] has also been applied to diagnose sequential errors
// efficiently [4]" (Ali, Veneris, Safarpour, Drechsler, Smith, Abadir,
// ICCAD 2004).
//
// A sequential design in the full-scan model (circuit.Latches pairing
// each flip-flop's present-state pseudo-input Q with its next-state
// pseudo-output D) is unrolled over T frames: frame f's Q signals are
// driven by frame f-1's D instances, frame 0's by free initial-state
// inputs. Every physical gate then has T instances sharing one select
// line — a correction toggles the gate in all frames and all tests
// simultaneously, while the injected correction values remain free per
// frame, exactly the semantics of the sequential SAT diagnosis paper.
package seq

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sim"
)

// Unrolled is a time-frame expansion of a sequential circuit.
type Unrolled struct {
	Seq    *circuit.Circuit // original (full-scan) circuit
	Comb   *circuit.Circuit // expanded combinational circuit
	Frames int

	gateAt  [][]int // [frame][orig gate] -> unrolled gate ID
	initIn  []int   // unrolled input IDs of the initial state, Latches order
	frameIn [][]int // [frame][pi index] -> unrolled input ID (primary inputs only)
	pis     []int   // original primary (non-latch) input IDs
}

// Unroll expands c over the given number of frames (>= 1).
func Unroll(c *circuit.Circuit, frames int) (*Unrolled, error) {
	if frames < 1 {
		return nil, fmt.Errorf("seq: frames must be >= 1")
	}
	isLatchQ := make(map[int]bool, len(c.Latches))
	for _, l := range c.Latches {
		isLatchQ[l.Q] = true
	}
	u := &Unrolled{
		Seq:     c,
		Frames:  frames,
		gateAt:  make([][]int, frames),
		frameIn: make([][]int, frames),
	}
	for _, in := range c.Inputs {
		if !isLatchQ[in] {
			u.pis = append(u.pis, in)
		}
	}

	b := circuit.NewBuilder(fmt.Sprintf("%s_x%d", c.Name, frames))
	// Initial state inputs, in latch order.
	for _, l := range c.Latches {
		u.initIn = append(u.initIn, b.Input(c.Gates[l.Q].Name+"@init"))
	}
	for f := 0; f < frames; f++ {
		u.gateAt[f] = make([]int, len(c.Gates))
		for i := range u.gateAt[f] {
			u.gateAt[f][i] = -1
		}
		// Wire latch outputs: frame 0 from the initial state, later
		// frames from the previous frame's D instance.
		for li, l := range c.Latches {
			if f == 0 {
				u.gateAt[f][l.Q] = u.initIn[li]
			} else {
				u.gateAt[f][l.Q] = u.gateAt[f-1][l.D]
			}
		}
		// Fresh primary inputs for this frame.
		u.frameIn[f] = make([]int, len(u.pis))
		for pi, in := range u.pis {
			id := b.Input(fmt.Sprintf("%s@%d", c.Gates[in].Name, f))
			u.frameIn[f][pi] = id
			u.gateAt[f][in] = id
		}
		// Gate instances in topological order.
		for g := range c.Gates {
			gate := &c.Gates[g]
			if gate.Kind == logic.Input {
				continue
			}
			fanin := make([]int, len(gate.Fanin))
			for j, fi := range gate.Fanin {
				fanin[j] = u.gateAt[f][fi]
			}
			name := fmt.Sprintf("%s@%d", gate.Name, f)
			if gate.Table != nil {
				u.gateAt[f][g] = b.TableGate(name, gate.Table.Clone(), fanin...)
			} else {
				u.gateAt[f][g] = b.Gate(gate.Kind, name, fanin...)
			}
		}
	}
	// Observable outputs: the real primary outputs of every frame.
	for f := 0; f < frames; f++ {
		for _, o := range u.RealOutputs() {
			b.Output(u.gateAt[f][o])
		}
	}
	comb, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("seq: unroll: %w", err)
	}
	u.Comb = comb
	return u, nil
}

// RealOutputs returns the original observable outputs: declared outputs
// that are not next-state pseudo-outputs.
func (u *Unrolled) RealOutputs() []int {
	isD := make(map[int]bool, len(u.Seq.Latches))
	for _, l := range u.Seq.Latches {
		isD[l.D] = true
	}
	var outs []int
	for _, o := range u.Seq.Outputs {
		if !isD[o] {
			outs = append(outs, o)
		}
	}
	return outs
}

// Groups returns, per original internal gate, the IDs of its frame
// instances (the select-line sharing groups), plus the original gate IDs
// as labels.
func (u *Unrolled) Groups() (groups [][]int, labels []int) {
	for _, g := range u.Seq.InternalGates() {
		grp := make([]int, 0, u.Frames)
		for f := 0; f < u.Frames; f++ {
			grp = append(grp, u.gateAt[f][g])
		}
		groups = append(groups, grp)
		labels = append(labels, g)
	}
	return groups, labels
}

// Test is a sequential diagnosis stimulus: an input sequence from a
// known initial state, with an erroneous observable output at one frame.
type Test struct {
	Initial []bool   // initial state, Latches order
	Vectors [][]bool // per frame, primary-input values (non-latch inputs)
	Frame   int      // frame of the observed error
	Output  int      // ORIGINAL observable output gate ID
	Want    bool     // correct value
}

// CombTest lowers a sequential test onto the unrolled circuit.
func (u *Unrolled) CombTest(t Test) (circuit.Test, error) {
	if len(t.Vectors) != u.Frames {
		return circuit.Test{}, fmt.Errorf("seq: test has %d vectors for %d frames", len(t.Vectors), u.Frames)
	}
	if t.Frame < 0 || t.Frame >= u.Frames {
		return circuit.Test{}, fmt.Errorf("seq: frame %d out of range", t.Frame)
	}
	vec := make([]bool, len(u.Comb.Inputs))
	pos := func(id int) int {
		p := u.Comb.InputPos(id)
		if p < 0 {
			panic("seq: unrolled input lost")
		}
		return p
	}
	for li := range u.Seq.Latches {
		vec[pos(u.initIn[li])] = t.Initial[li]
	}
	for f := 0; f < u.Frames; f++ {
		if len(t.Vectors[f]) != len(u.pis) {
			return circuit.Test{}, fmt.Errorf("seq: frame %d vector has %d values for %d inputs", f, len(t.Vectors[f]), len(u.pis))
		}
		for pi, v := range t.Vectors[f] {
			vec[pos(u.frameIn[f][pi])] = v
		}
	}
	return circuit.Test{Vector: vec, Output: u.gateAt[t.Frame][t.Output], Want: t.Want}, nil
}

// Simulate runs the sequential circuit over an input sequence from the
// initial state and returns, per frame, the observable output values (in
// RealOutputs order of the unrolled view: Seq outputs minus latch Ds).
func Simulate(c *circuit.Circuit, initial []bool, vectors [][]bool) ([][]bool, error) {
	if len(initial) != len(c.Latches) {
		return nil, fmt.Errorf("seq: %d initial values for %d latches", len(initial), len(c.Latches))
	}
	isD := make(map[int]bool, len(c.Latches))
	for _, l := range c.Latches {
		isD[l.D] = true
	}
	var realOuts []int
	for _, o := range c.Outputs {
		if !isD[o] {
			realOuts = append(realOuts, o)
		}
	}
	state := append([]bool(nil), initial...)
	s := sim.New(c)
	var results [][]bool
	for f, pis := range vectors {
		// Assemble the full-scan input vector: PIs + state.
		vec := make([]bool, len(c.Inputs))
		latchPos := make(map[int]int, len(c.Latches))
		for li, l := range c.Latches {
			latchPos[l.Q] = li
		}
		pi := 0
		for pos, in := range c.Inputs {
			if li, isQ := latchPos[in]; isQ {
				vec[pos] = state[li]
				continue
			}
			if pi >= len(pis) {
				return nil, fmt.Errorf("seq: frame %d vector too short", f)
			}
			vec[pos] = pis[pi]
			pi++
		}
		s.RunVector(vec)
		outs := make([]bool, len(realOuts))
		for i, o := range realOuts {
			outs[i] = s.OutputBit(o)
		}
		results = append(results, outs)
		for li, l := range c.Latches {
			state[li] = s.OutputBit(l.D)
		}
	}
	return results, nil
}

// GenOptions configures sequential test generation.
type GenOptions struct {
	Count        int   // number of failing sequential tests
	Frames       int   // sequence length
	Seed         int64 // RNG seed
	MaxSequences int   // budget (default 4096)
}

// GenerateTests derives failing sequential tests by simulating random
// input sequences from the all-zero initial state on the golden and
// faulty circuits and collecting frame/output disagreements.
func GenerateTests(golden, faulty *circuit.Circuit, opts GenOptions) ([]Test, error) {
	if opts.Frames < 1 {
		return nil, fmt.Errorf("seq: Frames must be >= 1")
	}
	count := opts.Count
	if count <= 0 {
		count = 1
	}
	budget := opts.MaxSequences
	if budget <= 0 {
		budget = 4096
	}
	nLatch := len(golden.Latches)
	nPI := len(golden.Inputs) - nLatch
	isD := make(map[int]bool, nLatch)
	for _, l := range golden.Latches {
		isD[l.D] = true
	}
	var realOuts []int
	for _, o := range golden.Outputs {
		if !isD[o] {
			realOuts = append(realOuts, o)
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var tests []Test
	initial := make([]bool, nLatch)
	for seqNo := 0; seqNo < budget && len(tests) < count; seqNo++ {
		vectors := make([][]bool, opts.Frames)
		for f := range vectors {
			v := make([]bool, nPI)
			for i := range v {
				v[i] = rng.Intn(2) == 1
			}
			vectors[f] = v
		}
		gOut, err := Simulate(golden, initial, vectors)
		if err != nil {
			return nil, err
		}
		fOut, err := Simulate(faulty, initial, vectors)
		if err != nil {
			return nil, err
		}
		for f := range gOut {
			for i, o := range realOuts {
				if gOut[f][i] != fOut[f][i] {
					tests = append(tests, Test{
						Initial: append([]bool(nil), initial...),
						Vectors: vectors,
						Frame:   f,
						Output:  o,
						Want:    gOut[f][i],
					})
					if len(tests) >= count {
						return tests, nil
					}
				}
			}
		}
	}
	if len(tests) == 0 {
		return nil, fmt.Errorf("seq: no failing sequence found within budget")
	}
	return tests, nil
}

// BSAT diagnoses a sequential circuit: the tests are lowered onto a
// time-frame expansion and BasicSATDiagnose runs with one shared select
// line per physical gate. Reported corrections name original gate IDs.
// All frame counts of the tests must equal frames.
func BSAT(c *circuit.Circuit, tests []Test, frames int, opts core.BSATOptions) (*core.BSATResult, *Unrolled, error) {
	u, err := Unroll(c, frames)
	if err != nil {
		return nil, nil, err
	}
	combTests := make(circuit.TestSet, len(tests))
	for i, t := range tests {
		ct, err := u.CombTest(t)
		if err != nil {
			return nil, nil, err
		}
		combTests[i] = ct
	}
	groups, labels := u.Groups()
	opts.Groups = groups
	opts.GroupLabels = labels
	opts.Candidates = nil
	res, err := core.BSAT(u.Comb, combTests, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, u, nil
}

// Validate checks a sequential correction by exact effect analysis on
// the unrolled circuit: per test, some assignment to all frame instances
// of the corrected gates must produce the correct value at the observed
// output.
func Validate(u *Unrolled, tests []Test, gates []int) (bool, error) {
	var unrolledGates []int
	for _, g := range gates {
		for f := 0; f < u.Frames; f++ {
			unrolledGates = append(unrolledGates, u.gateAt[f][g])
		}
	}
	combTests := make(circuit.TestSet, len(tests))
	for i, t := range tests {
		ct, err := u.CombTest(t)
		if err != nil {
			return false, err
		}
		combTests[i] = ct
	}
	return core.Validate(u.Comb, combTests, unrolledGates), nil
}
