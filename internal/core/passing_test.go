package core

import (
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/tgen"
)

// passingScenario returns s298x with one injected error and two of its
// failing tests rewritten to expect the faulty circuit's own output, so
// every test already passes and ∅ is the one minimal correction.
func passingScenario(t *testing.T) (*circuit.Circuit, circuit.TestSet) {
	t.Helper()
	golden, err := gen.ByName("s298x")
	if err != nil {
		t.Fatal(err)
	}
	faulty, _, err := faults.Inject(golden, faults.Options{Count: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tests, err := tgen.Random(golden, faulty, tgen.Options{Count: 2, Seed: 1, MaxPatterns: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	tests = slices.Clone(tests[:2])
	for i, tc := range tests {
		out := sim.Eval(faulty, tc.Vector)
		tests[i].Want = out[slices.Index(faulty.Outputs, tc.Output)]
	}
	return faulty, tests
}

// steerSelected sets every select line's saved phase to "selected", as
// the hybrid does for highly marked gates: the search then tries
// singletons before ∅.
func steerSelected(sess *cnf.DiagSession) {
	for _, l := range sess.Sels {
		sess.Solver.BumpActivity(l.Var(), 1)
		sess.Solver.SetPolarity(l.Var(), true)
	}
}

// TestPassingTestsGiveEmptyCorrection: when the tests already pass, the
// empty correction is the only minimal one, so every SAT engine must
// answer exactly [∅], whatever order the search tries the select lines
// in.
func TestPassingTestsGiveEmptyCorrection(t *testing.T) {
	c, tests := passingScenario(t)
	check := func(name string, got []Correction, complete bool) {
		t.Helper()
		if !complete || len(got) != 1 || len(got[0].Gates) != 0 {
			t.Fatalf("%s: %v (complete=%v), want exactly [∅]", name, got, complete)
		}
	}
	for _, shards := range []int{1, 2} {
		res, err := BSAT(c, tests, BSATOptions{K: 2, Shards: shards, ShardSample: 1, Steer: steerSelected})
		if err != nil {
			t.Fatal(err)
		}
		check("bsat", res.Solutions, res.Complete)
	}
	res, err := CEGARDiagnose(c, tests, BSATOptions{K: 2, Steer: steerSelected})
	if err != nil {
		t.Fatal(err)
	}
	check("cegar", res.Solutions, res.Complete)
}
