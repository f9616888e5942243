package cnf_test

import (
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/failpoint"
)

// faultScenario returns a shard scenario whose fault-free solution
// space has at least min solutions, so a SampleCap-1 sharded run always
// reaches the worker phase (where the failpoints live).
func faultScenario(t *testing.T, min int) (*circuit.Circuit, circuit.TestSet, [][]int) {
	t.Helper()
	for start := int64(1); start < 200; start += 20 {
		c, tests := shardScenario(t, start, 6)
		sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
		sols, complete, _ := sess.EnumerateSharded(1, cnf.RoundOptions{MaxK: 2})
		if complete && len(sols) >= min {
			return c, tests, sols
		}
	}
	t.Skipf("no scenario with >= %d solutions found", min)
	return nil, nil, nil
}

// faultCounters sums the fault-tolerance counters across stages.
func faultCounters(per []cnf.ShardStats) (panics, retries, abandoned int) {
	for _, st := range per {
		panics += st.Panics
		retries += st.Retries
		abandoned += st.Abandoned
	}
	return
}

// allComplete reports whether every stage exhausted its slice: for a
// worker phase, whether every planned cube was served in full.
func allComplete(per []cnf.ShardStats) bool {
	for _, st := range per {
		if !st.Complete {
			return false
		}
	}
	return true
}

// noCube is a synthetic cube function that finds nothing and always
// exhausts its slice.
func noCube(*cnf.DiagSession, cnf.Cube, cnf.RoundOptions) ([][]int, bool) { return nil, true }

// TestShardedFaultScheduleInvariance is the randomized fault-schedule
// extension of the shard-count-invariance property: under injected
// worker panics, transient cube errors, cancellations, and straggler
// delays, a sharded enumeration that reports complete=true must stay
// byte-identical to the fault-free Shards=1 run, every injected cube
// failure must be observable in the retry/abandon counters, every
// injected panic in the panic counters, and the parent session must
// survive any schedule unharmed.
func TestShardedFaultScheduleInvariance(t *testing.T) {
	defer failpoint.Disable()
	c, tests, baseline := faultScenario(t, 3)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})

	schedules := []string{
		"cnf/cube=error(1)x1",
		"cnf/cube=cancel(1)x2",
		"cnf/cube=panic(1)x1",
		"cnf/cube=panic(1)x2",
		"cnf/cube=error(0.4)x4;cnf/cube=delay(1ms,0.3)",
		"cnf/cube=panic(0.3)x2;cnf/cube=error(0.3)x3",
		"cnf/cube=cancel(0.5)x3;cnf/cube=panic(0.2)x1",
		"cnf/cube=panic(1)x8", // abandons cubes: must degrade, not corrupt
	}
	completed, degraded := 0, 0
	for _, spec := range schedules {
		for seed := int64(1); seed <= 4; seed++ {
			if err := failpoint.Enable(spec, seed); err != nil {
				t.Fatal(err)
			}
			sols, complete, per := sess.EnumerateSharded(4, cnf.RoundOptions{MaxK: 2, SampleCap: 1})
			hits := failpoint.Hits(cnf.FailpointCube)
			failpoint.Disable()
			panics, retries, abandoned := faultCounters(per)
			if panics != hits.Panics {
				t.Fatalf("%s seed %d: %d panics recovered, %d injected", spec, seed, panics, hits.Panics)
			}
			if retries+abandoned != hits.Failures() {
				t.Fatalf("%s seed %d: retries %d + abandoned %d != injected failures %d",
					spec, seed, retries, abandoned, hits.Failures())
			}
			if abandoned > 0 && complete {
				t.Fatalf("%s seed %d: complete=true with %d abandoned cubes", spec, seed, abandoned)
			}
			if complete {
				completed++
				if !reflect.DeepEqual(sols, baseline) {
					t.Fatalf("%s seed %d: complete run diverged from fault-free baseline:\n got %v\nwant %v",
						spec, seed, sols, baseline)
				}
			} else {
				degraded++
			}
		}
	}
	// The suite must exercise both outcomes: runs that complete despite
	// faults (retry in place recovered them) and runs that degrade.
	if completed == 0 {
		t.Fatal("no faulted run completed — retry never recovered")
	}
	if degraded == 0 {
		t.Log("note: every faulted run completed (no degradation exercised)")
	}

	// The parent session survives any schedule: a fault-free run on the
	// same session is still byte-identical to the baseline.
	after, complete, _ := sess.EnumerateSharded(1, cnf.RoundOptions{MaxK: 2})
	if !complete {
		t.Fatalf("parent session unusable after fault schedules: complete=%v", complete)
	}
	if !reflect.DeepEqual(after, baseline) {
		t.Fatalf("parent session corrupted by fault schedules:\n got %v\nwant %v", after, baseline)
	}
}

// TestRunCubesRetriesTransientFailures: with a single worker and two
// injected transient failures, the failed attempts are retried in place
// and every cube is still served — deterministically.
func TestRunCubesRetriesTransientFailures(t *testing.T) {
	defer failpoint.Disable()
	c, tests, sample := faultScenario(t, 2)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	if err := failpoint.Enable("cnf/cube=error(1)x2", 7); err != nil {
		t.Fatal(err)
	}
	ran := 0
	_, stats := sess.RunCubes(1, cnf.RoundOptions{MaxK: 2}, sample,
		func(*cnf.DiagSession, cnf.Cube, cnf.RoundOptions) ([][]int, bool) {
			ran++
			return nil, true
		})
	if stats[0].Retries != 2 || stats[0].Abandoned != 0 || stats[0].Panics != 0 {
		t.Fatalf("counters: %+v, want exactly 2 retries", stats[0])
	}
	if !stats[0].Complete {
		t.Fatal("retried worker reported incomplete")
	}
	if ran != stats[0].Cubes {
		t.Fatalf("run executed %d times but %d cubes served", ran, stats[0].Cubes)
	}
}

// TestRunCubesAbandonsAfterRetryBudget: four injected failures exhaust
// the retry budget (DefaultCubeRetries = 3) of one cube, which is then
// abandoned, and the phase reports incomplete. A single-candidate
// session plans a single cube, so every failure hits the same cube.
func TestRunCubesAbandonsAfterRetryBudget(t *testing.T) {
	defer failpoint.Disable()
	c, tests, sample := faultScenario(t, 2)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2, Candidates: sample[0][:1]})
	if err := failpoint.Enable("cnf/cube=error(1)x4", 7); err != nil {
		t.Fatal(err)
	}
	_, stats := sess.RunCubes(1, cnf.RoundOptions{MaxK: 2}, sample, noCube)
	if stats[0].Retries != 3 || stats[0].Abandoned != 1 {
		t.Fatalf("counters: %+v, want 3 retries + 1 abandoned", stats[0])
	}
	if stats[0].Complete {
		t.Fatal("worker with an abandoned cube reported complete")
	}
}

// TestRunCubesPanicReforksClone: with two workers and exactly one
// panic, the panicking worker replaces its clone with a fresh fork and
// retries the cube on it: the panicked clone is never used again, and
// every cube is served. This holds even on a single-core run where the
// GOMAXPROCS semaphore serializes the workers.
func TestRunCubesPanicReforksClone(t *testing.T) {
	c, tests, sample := faultScenario(t, 2)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	var (
		mu      sync.Mutex
		broken  *cnf.DiagSession
		reused  bool
		served  int
		planned = len(sess.PlanCubes(sample, 2*cnf.CubeOversubscription))
	)
	_, stats := sess.RunCubes(2, cnf.RoundOptions{MaxK: 2}, sample,
		func(clone *cnf.DiagSession, _ cnf.Cube, _ cnf.RoundOptions) ([][]int, bool) {
			mu.Lock()
			defer mu.Unlock()
			if clone == sess {
				t.Error("a cube ran on the parent session")
			}
			if broken == nil {
				broken = clone
				panic("injected cube panic")
			}
			reused = reused || clone == broken
			served++
			return nil, true
		})
	panics, retries, abandoned := faultCounters(stats)
	if panics != 1 || retries != 1 || abandoned != 0 {
		t.Fatalf("counters: panics=%d retries=%d abandoned=%d, want 1/1/0", panics, retries, abandoned)
	}
	for _, st := range stats {
		if !st.Complete {
			t.Fatalf("worker %d incomplete after recovered panic: %+v", st.Shard, st)
		}
	}
	if reused {
		t.Fatal("a cube ran on the clone that panicked")
	}
	if served != planned {
		t.Fatalf("%d of %d planned cubes served", served, planned)
	}
}

// TestRunCubesPanicEveryAttemptAbandonsEveryCube: when every attempt
// panics, each worker keeps re-forking and pulling cubes, so every
// planned cube is attempted 1 + DefaultCubeRetries times and then
// abandoned; the phase is incomplete, nothing blocks, and every
// injected panic is counted.
func TestRunCubesPanicEveryAttemptAbandonsEveryCube(t *testing.T) {
	defer failpoint.Disable()
	c, tests, sample := faultScenario(t, 2)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	planned := len(sess.PlanCubes(sample, 2*cnf.CubeOversubscription))
	if err := failpoint.Enable("cnf/cube=panic(1)", 7); err != nil {
		t.Fatal(err)
	}
	_, stats := sess.RunCubes(2, cnf.RoundOptions{MaxK: 2}, sample, noCube)
	hits := failpoint.Hits(cnf.FailpointCube)
	if allComplete(stats) {
		t.Fatal("phase complete with every attempt panicking")
	}
	panics, retries, abandoned := faultCounters(stats)
	if abandoned != planned {
		t.Fatalf("%d of %d planned cubes abandoned", abandoned, planned)
	}
	if want := planned * (1 + cnf.DefaultCubeRetries); panics != want || retries != planned*cnf.DefaultCubeRetries {
		t.Fatalf("panics=%d retries=%d, want %d panics and %d retries", panics, retries, want, planned*cnf.DefaultCubeRetries)
	}
	if panics != hits.Panics {
		t.Fatalf("%d panics counted, %d injected", panics, hits.Panics)
	}
}

// TestRunCubesStealsFromStraggler: a worker stuck on a slow cube holds
// up only that cube — the idle sibling takes every other cube off the
// shared list while the first one straggles. The straggling cube waits
// until the sibling has served all the others, so a schedule that tied
// cubes to the straggler would time out here. GOMAXPROCS is raised to 2
// for the duration so both workers hold semaphore slots concurrently
// even on a single-core machine.
func TestRunCubesStealsFromStraggler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c, tests, _ := faultScenario(t, 2)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	// A synthetic sample with a balanced pivot so PlanCubes yields
	// several cubes.
	cands := sess.Candidates
	if len(cands) < 4 {
		t.Skip("too few candidates")
	}
	var sample [][]int
	for i := 0; i < 8; i++ {
		s := []int{cands[i%4], cands[4+i%(len(cands)-4)]}
		sort.Ints(s)
		sample = append(sample, s)
	}
	planned := len(sess.PlanCubes(sample, 2*cnf.CubeOversubscription))
	if planned < 3 {
		t.Fatalf("only %d cubes planned", planned)
	}
	var straggled atomic.Bool
	var calls atomic.Int64
	othersDone := make(chan struct{})
	_, stats := sess.RunCubes(2, cnf.RoundOptions{MaxK: 2}, sample,
		func(*cnf.DiagSession, cnf.Cube, cnf.RoundOptions) ([][]int, bool) {
			if n := calls.Add(1); n == int64(planned) {
				close(othersDone)
			}
			if straggled.CompareAndSwap(false, true) {
				// Only the very first served cube straggles, until the
				// sibling has served every other cube.
				select {
				case <-othersDone:
				case <-time.After(10 * time.Second):
					t.Error("sibling did not serve the other cubes while the first one straggled")
				}
			}
			return nil, true
		})
	if !allComplete(stats) {
		t.Fatalf("straggler phase incomplete: %+v", stats)
	}
	counts := []int{stats[0].Cubes, stats[1].Cubes}
	sort.Ints(counts)
	if counts[0] != 1 || counts[1] != planned-1 {
		t.Fatalf("cubes served per worker %v, want the straggler's 1 and the sibling's %d", counts, planned-1)
	}
}
