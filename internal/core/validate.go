package core

import (
	"repro/internal/circuit"
	"repro/internal/sim"
)

// maxValidateGates bounds the exhaustive effect analysis (2^n forced
// assignments per test). Diagnosis limits k are small (the paper uses
// 1-4), so 20 is far beyond practical need while still guarding runtime.
const maxValidateGates = 20

// Validate performs exact effect analysis per Definition 3: it reports
// whether the gate set is a valid correction for the test-set, i.e. for
// every test some assignment of values to the gates' outputs produces
// the correct value at the test's erroneous output. Because the fanin
// values of a corrected gate are fixed within a single test, replacing a
// gate function by an arbitrary Boolean function is per test exactly a
// free output constant — the same semantics BSAT gives a selected
// candidate, whose output is free in each test copy.
//
// All 2^|gates| forced assignments of one test are packed into 64-wide
// simulation words, so corrections up to size 6 need a single
// simulation pass per test.
//
// Validate is the one-shot entry point (it re-simulates from scratch);
// hot loops issuing many queries against the same test-set should use a
// Validator, which answers each query from resident baselines in
// O(affected cone) instead of O(circuit).
func Validate(c *circuit.Circuit, tests circuit.TestSet, gates []int) bool {
	return ValidateSim(sim.New(c), tests, gates)
}

// Validator answers repeated Validate queries against a fixed
// (circuit, test-set) pair using the event-driven incremental engine:
// each test's unmodified 64-pattern evaluation stays resident in its
// own IncrementalSimulator, so one query costs only the propagation
// through the forced gates' fanout cones plus an O(touched) undo —
// never a whole-circuit re-simulation. A structural screen rejects
// assignments whose gates cannot reach the failing output at all.
//
// A Validator is not safe for concurrent use; create one per goroutine.
type Validator struct {
	c      *circuit.Circuit
	an     *circuit.Analysis
	tests  circuit.TestSet
	incs   []*sim.IncrementalSimulator // per test, baseline resident
	baseOK []bool                      // per test, baseline output already correct
	forced []sim.Forced                // reused force buffer
	redux  []int                       // reused reduced-gate buffer (Essential)
}

// NewValidator builds the per-test baselines (one full simulation per
// test, paid once).
func NewValidator(c *circuit.Circuit, tests circuit.TestSet) *Validator {
	v := &Validator{
		c:      c,
		an:     c.Analysis(),
		tests:  tests,
		incs:   make([]*sim.IncrementalSimulator, len(tests)),
		baseOK: make([]bool, len(tests)),
		forced: make([]sim.Forced, maxValidateGates),
	}
	for i, t := range tests {
		inc := sim.NewIncremental(c)
		inc.SetBaseline(sim.PackVector(t.Vector))
		v.incs[i] = inc
		v.baseOK[i] = inc.OutputBit(t.Output) == t.Want
	}
	return v
}

// Tests returns the validator's test-set.
func (v *Validator) Tests() circuit.TestSet { return v.tests }

// Validate reports whether gates is a valid correction for the
// validator's test-set — exactly ValidateSim's answer, computed
// incrementally.
func (v *Validator) Validate(gates []int) bool {
	return v.FirstRefuting(gates) < 0
}

// FirstRefuting returns the index of the first test the gate set cannot
// rectify, or -1 when the set is a valid correction for every test.
// CEGARDiagnose extracts its next core from that test.
func (v *Validator) FirstRefuting(gates []int) int {
	n := len(gates)
	if n > maxValidateGates {
		panic("core: Validate over more than 20 gates")
	}
	for i := range v.tests {
		if !v.validTest(i, gates) {
			return i
		}
	}
	return -1
}

// validTest reports whether some assignment to the gates' outputs
// produces the correct value at test i's erroneous output (Definition 3
// for a single test), against the resident baseline.
func (v *Validator) validTest(i int, gates []int) bool {
	n := len(gates)
	if n == 0 {
		return v.baseOK[i]
	}
	t := v.tests[i]
	// Structural screen: a gate set with no path to the failing
	// output leaves it at its baseline value under every assignment.
	reach := false
	for _, g := range gates {
		if v.an.Reaches(g, t.Output) {
			reach = true
			break
		}
	}
	if !reach {
		return v.baseOK[i]
	}
	total := 1 << uint(n)
	forced := v.forced[:n]
	inc := v.incs[i]
	for base := 0; base < total; base += 64 {
		lanes := total - base
		if lanes > 64 {
			lanes = 64
		}
		for j, g := range gates {
			forced[j] = sim.Forced{Gate: g, Value: assignmentWord(base, j)}
		}
		inc.ForceMany(forced)
		out := inc.Value(t.Output)
		inc.Undo()
		if !t.Want {
			out = ^out
		}
		if lanes < 64 {
			out &= (1 << uint(lanes)) - 1
		}
		if out != 0 {
			return true
		}
	}
	return false
}

// Essential reports whether gates is valid and contains only essential
// candidates (Definition 4), like the package-level Essential but over
// the validator's resident baselines.
func (v *Validator) Essential(gates []int) bool {
	if !v.Validate(gates) {
		return false
	}
	if len(gates) == 1 {
		return true
	}
	for i := range gates {
		v.redux = v.redux[:0]
		v.redux = append(v.redux, gates[:i]...)
		v.redux = append(v.redux, gates[i+1:]...)
		if v.Validate(v.redux) {
			return false
		}
	}
	return true
}

// ValidateSim is Validate with a caller-supplied simulator (avoids
// re-allocation in hot loops).
func ValidateSim(s *sim.Simulator, tests circuit.TestSet, gates []int) bool {
	n := len(gates)
	if n > maxValidateGates {
		panic("core: Validate over more than 20 gates")
	}
	if n == 0 {
		// The empty correction is valid iff the circuit already passes.
		for _, t := range tests {
			s.RunVector(t.Vector)
			if s.OutputBit(t.Output) != t.Want {
				return false
			}
		}
		return true
	}
	total := 1 << uint(n)
	forced := make([]sim.Forced, n)
	for _, t := range tests {
		inputs := sim.PackVector(t.Vector)
		rectified := false
		for base := 0; base < total && !rectified; base += 64 {
			lanes := total - base
			if lanes > 64 {
				lanes = 64
			}
			for j, g := range gates {
				forced[j] = sim.Forced{Gate: g, Value: assignmentWord(base, j)}
			}
			s.RunForced(inputs, forced)
			out := s.Value(t.Output)
			if !t.Want {
				out = ^out
			}
			if lanes < 64 {
				out &= (1 << uint(lanes)) - 1
			}
			if out != 0 {
				rectified = true
			}
		}
		if !rectified {
			return false
		}
	}
	return true
}

// assignmentWord returns the 64-lane word of bit j over assignments
// base..base+63: lane l carries bit j of assignment number base+l.
func assignmentWord(base, j int) uint64 {
	if j >= 6 {
		// Within a 64-aligned chunk, bits >= 6 are constant.
		if base>>uint(j)&1 == 1 {
			return ^uint64(0)
		}
		return 0
	}
	// Standard basis words: j=0 -> 0xAAAA..., j=1 -> 0xCCCC..., etc.
	var w uint64
	for l := uint(0); l < 64; l++ {
		if (uint(base)+l)>>uint(j)&1 == 1 {
			w |= 1 << l
		}
	}
	return w
}

// Essential reports whether the correction is valid and contains only
// essential candidates (Definition 4): dropping any single gate breaks
// validity.
func Essential(c *circuit.Circuit, tests circuit.TestSet, gates []int) bool {
	s := sim.New(c)
	if !ValidateSim(s, tests, gates) {
		return false
	}
	if len(gates) == 1 {
		// A singleton is essential iff the circuit does not already pass;
		// every test fails by Definition 1, so it is.
		return true
	}
	reduced := make([]int, 0, len(gates)-1)
	for i := range gates {
		reduced = reduced[:0]
		reduced = append(reduced, gates[:i]...)
		reduced = append(reduced, gates[i+1:]...)
		if ValidateSim(s, tests, reduced) {
			return false
		}
	}
	return true
}
