package core

import (
	"testing"

	"repro/internal/circuit"
)

// oracleSolutions computes BSAT's answer by brute-force simulation: every
// candidate subset of size ≤ k that the Validator accepts and that has no
// valid proper subset. Validity is monotone (a selected candidate's free
// value may equal its gate function), so scanning subsets by increasing
// size and discarding supersets of earlier answers leaves exactly the
// valid sets without a valid proper subset.
func oracleSolutions(c *circuit.Circuit, tests circuit.TestSet, k int) *SolutionSet {
	v := NewValidator(c, tests)
	cands := c.InternalGates()
	out := &SolutionSet{Complete: true}
	var subset []int
	var walk func(from, size int)
	walk = func(from, size int) {
		if len(subset) == size {
			corr := NewCorrection(subset)
			for _, s := range out.Solutions {
				if s.SubsetOf(corr) {
					return
				}
			}
			if v.Validate(corr.Gates) {
				out.Solutions = append(out.Solutions, corr)
			}
			return
		}
		for i := from; i < len(cands); i++ {
			subset = append(subset, cands[i])
			walk(i+1, size)
			subset = subset[:len(subset)-1]
		}
	}
	for size := 1; size <= k; size++ {
		walk(0, size)
	}
	out.Canonicalize()
	return out
}

// TestBSATMatchesSimulationOracle checks the cone-restricted encoding
// against an answer computed without SAT at all: on small generated
// circuits with several outputs (so a failing output's fanin cone is a
// proper part of the circuit), monolithic BSAT, 2-shard BSAT and CEGAR
// must each return exactly the subset-minimal valid corrections of size
// ≤ k that exhaustive simulation finds.
func TestBSATMatchesSimulationOracle(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	checked, proper := 0, false
	for seed := int64(1); checked < seeds && seed < 500; seed++ {
		sc := makeScenario(t, seed, 1+int(seed%3), 6)
		if sc == nil {
			continue
		}
		checked++
		for _, tc := range sc.tests {
			for _, in := range sc.faulty.FaninCone(tc.Output) {
				if !in {
					proper = true
				}
			}
		}
		want := oracleSolutions(sc.faulty, sc.tests, sc.k)
		mono, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k, Shards: 2, ShardSample: 1})
		if err != nil {
			t.Fatal(err)
		}
		cegar, err := CEGARDiagnose(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*SolutionSet{
			"mono": &mono.SolutionSet, "shards=2": &sharded.SolutionSet, "cegar": &cegar.SolutionSet,
		} {
			if !got.Complete || !SameSolutions(want, got) {
				t.Fatalf("seed %d k=%d %s: got %v (complete=%v), simulation oracle %v", seed, sc.k, name, got.Solutions, got.Complete, want.Solutions)
			}
		}
	}
	if checked < seeds {
		t.Fatalf("only %d detectable scenarios", checked)
	}
	if !proper {
		t.Fatal("every failing output's cone is the whole circuit; the oracle does not exercise the cone restriction")
	}
}
