package cnf_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
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
	sols, complete, per, err := sess.EnumerateSharded(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, complete, _, err := sess.EnumerateSharded(3, cnf.RoundOptions{MaxK: 2, SampleCap: 1}); err != nil || !complete {
		t.Fatal("sharded run incomplete")
	}
	after := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2})
	if !sameKeys(before, after) {
		t.Fatalf("parent session changed by sharded run: %v != %v", after, before)
	}
}

// TestShardCubesAreDisjoint: no solution may be reported by two shards
// of one fork — the cubes partition the projected solution space.
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
		for i, sh := range sess.ForkWorkers(cnf.ScheduleCubes(cubes, 3), true) {
			for _, cube := range sh.Cubes {
				_, complete, _ := sh.Session.EnumerateRound(cnf.RoundOptions{MaxK: 2, ExtraAssumps: cube.Assumps}, func(_ int, gates []int) bool {
					g := append([]int(nil), gates...)
					sort.Ints(g)
					key := fmt.Sprint(g)
					if prev, dup := seen[key]; dup {
						t.Fatalf("solution %s found by shards %d and %d", key, prev, i)
					}
					seen[key] = i
					total++
					return true
				})
				if !complete {
					t.Fatalf("shard %d incomplete without budgets", i)
				}
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
	sols, complete, _, err := sess.EnumerateSharded(2, cnf.RoundOptions{MaxK: 2, Ctx: ctx, SampleCap: 1})
	if err != nil {
		t.Fatal(err)
	}
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

// TestScheduleCubes: longest-first assignment onto the least-loaded
// worker, deterministic.
func TestScheduleCubes(t *testing.T) {
	cubes := []cnf.Cube{{Weight: 10}, {Weight: 1}, {Weight: 7}, {Weight: 3}, {Weight: 2}}
	workers := cnf.ScheduleCubes(cubes, 2)
	if len(workers) != 2 {
		t.Fatalf("%d workers", len(workers))
	}
	sum := func(cs []cnf.Cube) int {
		n := 0
		for _, c := range cs {
			n += c.Weight
		}
		return n
	}
	a, b := sum(workers[0]), sum(workers[1])
	if a+b != 23 || a < 10 || b < 10 {
		t.Fatalf("unbalanced schedule: %d vs %d", a, b)
	}
}

// TestShardedCancellationReleasesWorkers is the goleak-style hygiene
// check for the worker paths: a cancelled sharded enumeration must not
// strand worker goroutines (they all drain through wg.Wait) and must
// drop every cloned solver promptly (Shard.Release nils the references
// as each worker exits). Goroutines are counted before and after with a
// settle loop, so unrelated runtime goroutines do not flake the test.
func TestShardedCancellationReleasesWorkers(t *testing.T) {
	c, tests := shardScenario(t, 5, 6)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})

	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, complete, _, _ := sess.EnumerateSharded(4, cnf.RoundOptions{MaxK: 2, Ctx: ctx, SampleCap: 1})
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

// TestShardReleaseDropsClone: Release must clear the cloned session so
// a worker's solver memory is collectable independent of the fork slice.
func TestShardReleaseDropsClone(t *testing.T) {
	c, tests := shardScenario(t, 11, 4)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	shards := sess.ForkWorkers(cnf.ScheduleCubes(sess.PlanCubes(nil, 2), 2), true)
	for _, sh := range shards {
		if sh.Session == nil {
			t.Fatal("fresh shard has no session")
		}
		sh.Release()
		sh.Release() // idempotent
		if sh.Session != nil || sh.Cubes != nil {
			t.Fatal("Release left references behind")
		}
	}
	// The parent session must stay fully usable.
	if got := roundKeys(t, sess, cnf.RoundOptions{MaxK: 2}); got == nil {
		t.Log("no solutions (fine) — session still usable")
	}
}
