package cnf_test

import (
	"reflect"
	"runtime"
	"sort"
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
func faultCounters(per []cnf.ShardStats) (panics, retries, steals, abandoned int) {
	for _, st := range per {
		panics += st.Panics
		retries += st.Retries
		steals += st.Steals
		abandoned += st.Abandoned
	}
	return
}

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
		"cnf/cube=panic(1)x8", // can kill every worker: must degrade, not corrupt
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
			panics, retries, _, abandoned := faultCounters(per)
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
	// faults (retry/steal recovered them) and runs that degrade.
	if completed == 0 {
		t.Fatal("no faulted run completed — retry/requeue never recovered")
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
// injected transient failures, the failed attempts are requeued to the
// same worker and the phase still drains — deterministically.
func TestRunCubesRetriesTransientFailures(t *testing.T) {
	defer failpoint.Disable()
	c, tests, sample := faultScenario(t, 2)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	if err := failpoint.Enable("cnf/cube=error(1)x2", 7); err != nil {
		t.Fatal(err)
	}
	ran := 0
	_, stats, drained := sess.RunCubes(1, cnf.RoundOptions{MaxK: 2}, sample,
		func(_ *cnf.Shard, _ cnf.Cube, _ cnf.RoundOptions) ([][]int, bool) {
			ran++
			return nil, true
		})
	if !drained {
		t.Fatalf("phase did not drain: %+v", stats)
	}
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
// abandoned, and the phase reports not drained. A single-candidate
// session plans a single cube, so every failure hits the same cube.
func TestRunCubesAbandonsAfterRetryBudget(t *testing.T) {
	defer failpoint.Disable()
	c, tests, sample := faultScenario(t, 2)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2, Candidates: sample[0][:1]})
	if err := failpoint.Enable("cnf/cube=error(1)x4", 7); err != nil {
		t.Fatal(err)
	}
	_, stats, drained := sess.RunCubes(1, cnf.RoundOptions{MaxK: 2}, sample,
		func(_ *cnf.Shard, _ cnf.Cube, _ cnf.RoundOptions) ([][]int, bool) {
			return nil, true
		})
	if drained {
		t.Fatal("phase drained despite an abandoned cube")
	}
	if stats[0].Retries != 3 || stats[0].Abandoned != 1 {
		t.Fatalf("counters: %+v, want 3 retries + 1 abandoned", stats[0])
	}
	if stats[0].Complete {
		t.Fatal("worker with an abandoned cube reported complete")
	}
}

// TestRunCubesPanicKillsWorkerAndSurvivorsDrain: with two workers and
// exactly one injected panic, the dying worker requeues its cube and
// the survivor steals and drains everything. This holds even on a
// single-core run where the GOMAXPROCS semaphore serializes the
// workers: the survivor simply runs after the victim has died.
func TestRunCubesPanicKillsWorkerAndSurvivorsDrain(t *testing.T) {
	defer failpoint.Disable()
	c, tests, sample := faultScenario(t, 2)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	if err := failpoint.Enable("cnf/cube=panic(1)x1", 7); err != nil {
		t.Fatal(err)
	}
	_, stats, drained := sess.RunCubes(2, cnf.RoundOptions{MaxK: 2}, sample,
		func(_ *cnf.Shard, _ cnf.Cube, _ cnf.RoundOptions) ([][]int, bool) {
			return nil, true
		})
	if !drained {
		t.Fatalf("survivor did not drain the dead worker's cubes: %+v", stats)
	}
	panics, retries, _, abandoned := faultCounters(stats)
	if panics != 1 || retries != 1 || abandoned != 0 {
		t.Fatalf("counters: panics=%d retries=%d abandoned=%d, want 1/1/0", panics, retries, abandoned)
	}
	for _, st := range stats {
		if !st.Complete {
			t.Fatalf("worker %d incomplete after recovered panic: %+v", st.Shard, st)
		}
	}
}

// TestRunCubesAllWorkersDead: when every worker dies the leftover cubes
// are stranded and the phase must report not drained — the all-dead
// case per-worker Complete flags alone cannot detect.
func TestRunCubesAllWorkersDead(t *testing.T) {
	defer failpoint.Disable()
	c, tests, sample := faultScenario(t, 2)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	// Unlimited panics: every attempt panics until both workers are dead.
	if err := failpoint.Enable("cnf/cube=panic(1)", 7); err != nil {
		t.Fatal(err)
	}
	_, stats, drained := sess.RunCubes(2, cnf.RoundOptions{MaxK: 2}, sample,
		func(_ *cnf.Shard, _ cnf.Cube, _ cnf.RoundOptions) ([][]int, bool) {
			return nil, true
		})
	if drained {
		t.Fatal("phase drained with every worker dead")
	}
	panics, _, _, _ := faultCounters(stats)
	if panics != len(stats) {
		t.Fatalf("%d panics across %d workers, want one each", panics, len(stats))
	}
}

// TestRunCubesStealsFromStraggler: a worker stuck on a slow cube has
// its pending cubes stolen by the idle sibling. GOMAXPROCS is raised to
// 2 for the duration so both workers hold semaphore slots concurrently
// even on a single-core machine.
func TestRunCubesStealsFromStraggler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c, tests, _ := faultScenario(t, 2)
	sess := cnf.BuildDiag(c, tests, cnf.DiagOptions{MaxK: 2})
	// A synthetic sample with a balanced pivot so PlanCubes yields
	// several cubes spread over both workers.
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
	var straggled atomic.Bool
	_, stats, drained := sess.RunCubes(2, cnf.RoundOptions{MaxK: 2}, sample,
		func(_ *cnf.Shard, _ cnf.Cube, _ cnf.RoundOptions) ([][]int, bool) {
			if straggled.CompareAndSwap(false, true) {
				// Only the very first served cube straggles.
				time.Sleep(150 * time.Millisecond)
			}
			return nil, true
		})
	if !drained {
		t.Fatalf("straggler phase did not drain: %+v", stats)
	}
	if _, _, steals, _ := faultCounters(stats); steals == 0 {
		t.Skip("no steal occurred (scheduler served the straggler last)")
	}
}
