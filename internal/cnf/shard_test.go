package cnf_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/sat"
	"repro/internal/tgen"
)

// shardScenario is sessionScenario without skipping: it scans seeds for
// a detectable fault so table-driven shard tests always run.
func shardScenario(t *testing.T, start int64, m int) (*circuit.Circuit, circuit.TestSet) {
	t.Helper()
	for seed := start; seed < start+30; seed++ {
		golden, err := gen.Generate(gen.Spec{Name: "shard", Inputs: 6, Outputs: 3, Gates: 40, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		faulty, _, err := faults.Inject(golden, faults.Options{Count: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		tests, err := tgen.Random(golden, faulty, tgen.Options{Count: m, Seed: seed, MaxPatterns: 1 << 12})
		if err == tgen.ErrUndetected {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		return faulty, tests
	}
	t.Fatalf("no detectable scenario from seed %d", start)
	return nil, nil
}

// shardedKeys enumerates a sharded round to completion and returns the
// merged solutions as canonical key strings (preserving merge order).
// SampleCap 1 forces the fork path even on small solution spaces.
func shardedKeys(t *testing.T, sess *cnf.DiagSession, shards int, opts cnf.RoundOptions) []string {
	t.Helper()
	sols, complete, per := sess.EnumerateSharded(shards, opts)
	if !complete {
		t.Fatalf("sharded enumeration (%d shards) incomplete without budgets", shards)
	}
	if len(per) == 0 {
		t.Fatalf("no per-stage stats for %d shards", shards)
	}
	keys := make([]string, len(sols))
	for i, s := range sols {
		keys[i] = fmt.Sprint(s)
	}
	return keys
}

// TestShardedMatchesMonolithic: for any shard count, the merged sharded
// enumeration must equal the monolithic round's solution set — and the
// output order must be identical across shard counts (canonical merge).
// SampleCap 1 forces real forking even on small spaces.
func TestShardedMatchesMonolithic(t *testing.T) {
	for _, start := range []int64{1, 40, 80} {
		c, tests := shardScenario(t, start, 6)
		sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})

		mono := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2})
		base := shardedKeys(t, sess, 1, cnf.RoundOptions{MaxK: 2})
		asSet := append([]string(nil), base...)
		sort.Strings(asSet)
		if !sameKeys(asSet, mono) {
			t.Fatalf("start %d: sharded(1) %v != monolithic %v", start, asSet, mono)
		}
		for _, n := range []int{2, 3, 4, 7} {
			for _, sample := range []int{1, 2, 64} {
				got := shardedKeys(t, sess, n, cnf.RoundOptions{MaxK: 2, SampleCap: sample})
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("start %d shards %d sample %d: %v != shards 1 %v", start, n, sample, got, base)
				}
			}
		}
	}
}

// TestShardedParentUnaffected: forking and running shards must leave the
// parent session fully usable with an unchanged solution space.
func TestShardedParentUnaffected(t *testing.T) {
	c, tests := shardScenario(t, 3, 6)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	before := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2})
	if _, complete, _ := sess.EnumerateSharded(3, cnf.RoundOptions{MaxK: 2, SampleCap: 1}); !complete {
		t.Fatal("sharded run incomplete")
	}
	after := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2})
	if !sameKeys(before, after) {
		t.Fatalf("parent session changed by sharded run: %v != %v", after, before)
	}
}

// TestForkLadderGrowth: a forked session that encodes further copies
// (new select lines, new ladder leaves) and grows its ladder must leave
// the parent's lines, ladder width and answers untouched, and both must
// answer a wider limit like a session built at that width over their
// own copies — as must a sharded run whose workers grow their clones
// concurrently.
func TestForkLadderGrowth(t *testing.T) {
	c, tests := shardScenario(t, 37, 6) // three erroneous outputs
	// Highest output first, so the second half's cones reach gates the
	// first half's do not.
	slices.SortStableFunc(tests, func(a, b circuit.Test) int { return b.Output - a.Output })
	half := len(tests) / 2
	sess := cnf.BuildDiag(c, tests[:half], cnf.DiagOptions{MaxK: 1})
	before := roundKeys(t, sess, cnf.RoundOptions{MaxK: 1})
	width, lines := sess.Ladder.Width(), len(sess.Sels)
	want := roundKeys(t, cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 3}), cnf.RoundOptions{MaxK: 3})

	clone := sess.Fork()
	clone.AddTests(tests[half:])
	if len(clone.Sels) <= lines {
		t.Fatalf("the clone's copies added no select line to the %d it forked with", lines)
	}
	if got := roundKeys(t, clone, cnf.RoundOptions{MaxK: 3}); !sameKeys(got, want) {
		t.Fatalf("grown clone %v != built at MaxK 3 %v", got, want)
	}
	if clone.Ladder.Width() <= width {
		t.Fatalf("clone ladder width %d did not grow past %d", clone.Ladder.Width(), width)
	}
	if sess.Ladder.Width() != width || len(sess.Sels) != lines {
		t.Fatalf("parent ladder width %d -> %d, select lines %d -> %d after the clone's growth",
			width, sess.Ladder.Width(), lines, len(sess.Sels))
	}
	if got := roundKeys(t, sess, cnf.RoundOptions{MaxK: 1}); !sameKeys(got, before) {
		t.Fatalf("parent answers changed by the clone's growth: %v != %v", got, before)
	}
	wantHalf := roundKeys(t, cnf.BuildDiag(c, tests[:half], cnf.DiagOptions{MaxK: 3}), cnf.RoundOptions{MaxK: 3})
	if got := roundKeys(t, sess, cnf.RoundOptions{MaxK: 3}); !sameKeys(got, wantHalf) {
		t.Fatalf("grown parent %v != built at MaxK 3 %v", got, wantHalf)
	}

	narrow := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 1})
	got := shardedKeys(t, narrow, 4, cnf.RoundOptions{MaxK: 3, SampleCap: 1})
	sort.Strings(got)
	if !sameKeys(got, want) {
		t.Fatalf("sharded run grown from MaxK 1: %v != built at MaxK 3 %v", got, want)
	}
}

// TestShardCubesAreDisjoint: no solution may be reported by two cubes
// of one plan, each enumerated on its own fork — the cubes partition
// the projected solution space.
func TestShardCubesAreDisjoint(t *testing.T) {
	c, tests := shardScenario(t, 5, 6)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})

	// Collect the full space once to plan cubes from real frequencies.
	var sample [][]int
	sess.EnumerateRound(cnf.RoundOptions{MaxK: 2}, func(_ int, gates []int) bool {
		g := append([]int(nil), gates...)
		sort.Ints(g)
		sample = append(sample, g)
		return true
	})

	for _, plan := range [][][]int{nil, sample} { // staircase and sampled cubes
		seen := make(map[string]int)
		total := 0
		cubes := sess.PlanCubes(plan, 3)
		for i, cube := range cubes {
			_, complete := sess.Fork().EnumerateRound(cnf.RoundOptions{MaxK: 2, ExtraAssumps: cube.Assumps}, func(_ int, gates []int) bool {
				g := append([]int(nil), gates...)
				sort.Ints(g)
				key := fmt.Sprint(g)
				if prev, dup := seen[key]; dup {
					t.Fatalf("solution %s found by cubes %d and %d", key, prev, i)
				}
				seen[key] = i
				total++
				return true
			})
			if !complete {
				t.Fatalf("cube %d incomplete without budgets", i)
			}
		}
		if total < len(sample) {
			t.Fatalf("cubes cover %d of %d solutions", total, len(sample))
		}
	}
}

// TestShardedExtraAssumpsHonored: caller-supplied ExtraAssumps must
// confine the workers' residual enumeration, not just the sample stage.
func TestShardedExtraAssumpsHonored(t *testing.T) {
	c, tests := shardScenario(t, 9, 6)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	// Restrict to solutions avoiding the first candidate's select line.
	extra := []sat.Lit{sess.Sels[0].Neg()}
	mono := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2, ExtraAssumps: extra})
	got := shardedKeys(t, sess, 3, cnf.RoundOptions{MaxK: 2, ExtraAssumps: extra, SampleCap: 1})
	asSet := append([]string(nil), got...)
	sort.Strings(asSet)
	if !sameKeys(asSet, mono) {
		t.Fatalf("sharded with ExtraAssumps %v != monolithic %v", asSet, mono)
	}
}

// TestShardedCancellation: a cancelled context surfaces as an incomplete
// sharded round.
func TestShardedCancellation(t *testing.T) {
	c, tests := shardScenario(t, 3, 6)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sols, complete, _ := sess.EnumerateSharded(2, cnf.RoundOptions{MaxK: 2, Ctx: ctx, SampleCap: 1})
	if complete || len(sols) != 0 {
		t.Fatalf("cancelled sharded round: complete=%v solutions=%d", complete, len(sols))
	}
}

// TestMergeHelpers: canonical sort and cross-shard superset removal.
func TestMergeHelpers(t *testing.T) {
	merged := cnf.MergeShardSolutions([][][]int{
		{{4, 9}, {3}},
		{{2, 7}, {3, 5}, {1, 2, 7}},
	})
	want := [][]int{{3}, {2, 7}, {4, 9}}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged %v, want %v", merged, want)
	}
}

// TestPlanCubesBalanced: with a skewed sample the planner must split on
// the dominant candidate instead of staircasing blindly.
func TestPlanCubesBalanced(t *testing.T) {
	c, tests := shardScenario(t, 7, 6)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	cands := sess.Candidates
	if len(cands) < 4 {
		t.Skip("too few candidates")
	}
	hot := cands[len(cands)/2]
	var sample [][]int
	for i := 0; i < 10; i++ {
		s := []int{hot, cands[i%3]}
		sort.Ints(s)
		sample = append(sample, s)
	}
	sample = append(sample, []int{cands[3]})
	cubes := sess.PlanCubes(sample, 2)
	if len(cubes) != 2 {
		t.Fatalf("%d cubes for n=2", len(cubes))
	}
	// One cube must pivot on a sampled candidate (positive literal), the
	// other on its negation, with the sampled loads recorded as weights.
	a, b := cubes[0].Assumps, cubes[1].Assumps
	if len(a) != 1 || len(b) != 1 || a[0] != b[0].Neg() {
		t.Fatalf("unexpected cube shapes: %v / %v", a, b)
	}
	if cubes[0].Weight+cubes[1].Weight != len(sample) {
		t.Fatalf("cube weights %d+%d != sample %d", cubes[0].Weight, cubes[1].Weight, len(sample))
	}
}

// TestRunCubesServesHeaviestFirst: the worker phase serves its cubes
// from one list ordered by descending sampled weight, so a single
// worker sees every planned cube, heaviest first.
func TestRunCubesServesHeaviestFirst(t *testing.T) {
	c, tests := shardScenario(t, 7, 6)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	cands := sess.Candidates
	if len(cands) < 6 {
		t.Skip("too few candidates")
	}
	// A skewed sample: planning splits it into cubes of unequal weight.
	var sample [][]int
	for i := 0; i < 12; i++ {
		s := []int{cands[i%2], cands[2+i%(len(cands)-2)]}
		if i%3 == 0 {
			s = []int{cands[5]}
		}
		sort.Ints(s)
		sample = append(sample, s)
	}
	planned := sess.PlanCubes(sample, cnf.CubeOversubscription)
	distinct := map[int]bool{}
	for _, cube := range planned {
		distinct[cube.Weight] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("planned cube weights %v are all equal", planned)
	}
	var weights []int
	_, stats := sess.RunCubes(1, cnf.RoundOptions{MaxK: 2}, sample,
		func(_ *cnf.DiagSession, cube cnf.Cube, _ cnf.RoundOptions) ([][]int, bool) {
			weights = append(weights, cube.Weight)
			return nil, true
		})
	if len(weights) != len(planned) || !stats[0].Complete {
		t.Fatalf("served %d of %d planned cubes (complete=%v)", len(weights), len(planned), stats[0].Complete)
	}
	if !sort.IsSorted(sort.Reverse(sort.IntSlice(weights))) {
		t.Fatalf("cube weights served in order %v, want non-increasing", weights)
	}
}

// TestShardedCancellationReleasesWorkers is the goleak-style hygiene
// check for the worker paths: a cancelled sharded enumeration must not
// strand worker goroutines (they all drain through wg.Wait); each
// worker's clone is local to its goroutine, so it is collectable as
// soon as the worker exits. Goroutines are counted before and after with a
// settle loop, so unrelated runtime goroutines do not flake the test.
func TestShardedCancellationReleasesWorkers(t *testing.T) {
	c, tests := shardScenario(t, 5, 6)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})

	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, complete, _ := sess.EnumerateSharded(4, cnf.RoundOptions{MaxK: 2, Ctx: ctx, SampleCap: 1})
		if complete {
			t.Fatalf("iteration %d: cancelled run reported complete", i)
		}
	}
	// Workers exit through wg.Wait before EnumerateSharded returns; give
	// the runtime a few scheduling rounds to reap the exited goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancelled sharded runs",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
