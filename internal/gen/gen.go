// Package gen generates seeded synthetic gate-level netlists with
// ISCAS89-like structure. The paper evaluates on ISCAS89 circuits
// (s1423, s6669, s38417); those netlists are not redistributable inside
// this offline repository, so the suite provides statistical analogs —
// same interface widths and gate-count profile, typical gate mix, deep
// reconvergent logic — under the names s1423x, s6669x, s38417x, plus a
// range of smaller circuits backing the Figure 6 scatter. This comment
// and Suite's document the substitution.
package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Spec parameterizes a synthetic circuit.
type Spec struct {
	Name    string
	Inputs  int // primary + pseudo-primary inputs
	Outputs int // primary + pseudo-primary outputs
	Gates   int // internal gate target (excluding inputs)
	Seed    int64
	// MaxFanin bounds gate arity (default 2; ISCAS circuits are mostly
	// 2-input with occasional wider gates).
	MaxFanin int
	// Locality biases fanin selection toward recently created signals,
	// producing deep circuits with local reconvergence (default 0.8).
	Locality float64
}

// gate kind mix approximating ISCAS89 profiles: heavy NAND/NOR/INV,
// some AND/OR, occasional XOR.
var kindMix = []struct {
	kind   logic.Kind
	weight int
}{
	{logic.Nand, 24},
	{logic.And, 18},
	{logic.Nor, 14},
	{logic.Or, 14},
	{logic.Not, 16},
	{logic.Buf, 4},
	{logic.Xor, 6},
	{logic.Xnor, 4},
}

// Generate builds the synthetic circuit for the spec. Identical specs
// yield identical circuits (the RNG is fully seeded).
func Generate(spec Spec) (*circuit.Circuit, error) {
	if spec.Inputs < 1 || spec.Outputs < 1 || spec.Gates < 1 {
		return nil, fmt.Errorf("gen: spec %q needs inputs/outputs/gates >= 1", spec.Name)
	}
	maxFanin := spec.MaxFanin
	if maxFanin < 2 {
		maxFanin = 2
	}
	locality := spec.Locality
	if locality <= 0 || locality > 1 {
		locality = 0.8
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	b := circuit.NewBuilder(spec.Name)

	signals := make([]int, 0, spec.Inputs+spec.Gates)
	fanoutCount := make(map[int]int)
	for i := 0; i < spec.Inputs; i++ {
		signals = append(signals, b.Input(fmt.Sprintf("pi%d", i)))
	}
	totalWeight := 0
	for _, km := range kindMix {
		totalWeight += km.weight
	}
	pick := func() int {
		// Prefer recent signals for depth; fall back to uniform for
		// reconvergence across the whole prefix.
		n := len(signals)
		if rng.Float64() < locality {
			window := n / 4
			if window < 8 {
				window = 8
			}
			if window > n {
				window = n
			}
			return signals[n-1-rng.Intn(window)]
		}
		return signals[rng.Intn(n)]
	}
	for i := 0; i < spec.Gates; i++ {
		w := rng.Intn(totalWeight)
		kind := kindMix[0].kind
		for _, km := range kindMix {
			if w < km.weight {
				kind = km.kind
				break
			}
			w -= km.weight
		}
		arity := 1
		if kind != logic.Not && kind != logic.Buf {
			arity = 2
			if maxFanin > 2 && rng.Intn(8) == 0 {
				arity = 2 + rng.Intn(maxFanin-1)
			}
		}
		fanin := make([]int, 0, arity)
		for len(fanin) < arity {
			f := pick()
			dup := false
			for _, x := range fanin {
				if x == f {
					dup = true
					break
				}
			}
			if !dup {
				fanin = append(fanin, f)
			} else if len(signals) <= arity {
				fanin = append(fanin, f) // tiny circuits: allow duplicates
			}
		}
		id := b.Gate(kind, fmt.Sprintf("g%d", i), fanin...)
		for _, f := range fanin {
			fanoutCount[f]++
		}
		signals = append(signals, id)
	}

	// Outputs: prefer sinks (fanout-free gates, newest first) so most of
	// the generated logic is observable; top up with random internal
	// gates when there are too few sinks.
	internal := signals[spec.Inputs:]
	var sinks []int
	for i := len(internal) - 1; i >= 0; i-- {
		if fanoutCount[internal[i]] == 0 {
			sinks = append(sinks, internal[i])
		}
	}
	outs := sinks
	if len(outs) > spec.Outputs {
		outs = outs[:spec.Outputs]
	}
	chosen := make(map[int]bool)
	for _, o := range outs {
		chosen[o] = true
	}
	for len(outs) < spec.Outputs && len(chosen) < len(internal) {
		g := internal[rng.Intn(len(internal))]
		if !chosen[g] {
			chosen[g] = true
			outs = append(outs, g)
		}
	}
	sort.Ints(outs)
	for _, o := range outs {
		b.Output(o)
	}
	return b.Build()
}

// Suite returns the named benchmark specs used by the experiment
// harness. The three paper circuits appear as *x analogs; smaller
// circuits back the Figure 6 sweep. s38417x is scaled to ~11k gates so
// that all-solutions BSAT enumeration stays tractable for a pure-Go
// CDCL solver; PaperScaleSpec provides the full-size variant.
func Suite() []Spec {
	return []Spec{
		{Name: "s298x", Inputs: 17, Outputs: 20, Gates: 119, Seed: 298},
		{Name: "s400x", Inputs: 24, Outputs: 27, Gates: 162, Seed: 400},
		{Name: "s526x", Inputs: 24, Outputs: 27, Gates: 193, Seed: 526},
		{Name: "s838x", Inputs: 67, Outputs: 66, Gates: 390, Seed: 838},
		{Name: "s1196x", Inputs: 32, Outputs: 32, Gates: 529, Seed: 1196},
		{Name: "s1423x", Inputs: 91, Outputs: 79, Gates: 657, Seed: 1423},
		{Name: "s5378x", Inputs: 214, Outputs: 228, Gates: 2779, Seed: 5378},
		{Name: "s6669x", Inputs: 322, Outputs: 294, Gates: 3080, Seed: 6669},
		{Name: "s9234x", Inputs: 247, Outputs: 250, Gates: 5597, Seed: 9234},
		{Name: "s38417x", Inputs: 1664, Outputs: 1742, Gates: 11000, Seed: 38417},
	}
}

// PaperScaleSpec returns the full-size analog of a suite circuit (only
// s38417x differs from the default suite).
func PaperScaleSpec(name string) (Spec, bool) {
	for _, s := range Suite() {
		if s.Name == name {
			if name == "s38417x" {
				s.Gates = 22179
			}
			return s, true
		}
	}
	return Spec{}, false
}

// ByName generates a suite circuit by name.
func ByName(name string) (*circuit.Circuit, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return Generate(s)
		}
	}
	return nil, fmt.Errorf("gen: unknown circuit %q (known: %v)", name, SuiteNames())
}

// SuiteNames lists the available synthetic circuits.
func SuiteNames() []string {
	specs := Suite()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}
