package cnf

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/sat"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Cube is one assumption-scoped slice of the solution space: the
// assumptions confine enumeration to the corrections satisfying them,
// and Weight estimates the slice's load (sampled solutions inside it),
// which orders the cubes heaviest first. A nil Assumps cube is
// unconstrained. The cubes of one plan partition the projected
// solution space, so the workers never repeat a solution and the
// canonical merge of their outputs equals the monolithic enumeration.
// Slices are scoped purely by assumptions, never by asserted clauses,
// so one clone serves any number of cubes in turn.
type Cube struct {
	Assumps []sat.Lit
	Weight  int
}

// PlanCubes derives disjoint assumption cubes that together cover the
// whole solution space, at most n of them. With a sample of
// already-known solutions (each a sorted candidate-label set) the
// planner builds a balanced binary decision tree: it repeatedly splits
// the leaf holding the most sampled solutions on the candidate whose
// membership frequency inside that leaf is closest to one half — the
// pivot that best halves the leaf's expected load. Without a sample it
// falls back to a deterministic staircase over the lowest candidate
// positions. Fewer than n cubes are returned when no splittable pivot
// remains.
func (sess *DiagSession) PlanCubes(sample [][]int, n int) []Cube {
	if n > len(sess.Sels) {
		n = len(sess.Sels)
	}
	if n < 2 {
		return []Cube{{Weight: len(sample)}}
	}
	// Sample solutions carry candidate LABELS (group labels for grouped
	// sessions), which are not gate IDs; map them to select positions
	// explicitly.
	labelPos := make(map[int]int, len(sess.Candidates))
	for j, lbl := range sess.Candidates {
		labelPos[lbl] = j
	}
	type leaf struct {
		cube  []sat.Lit
		sols  [][]int
		fixed map[int]bool // candidate labels already pivoted on this path
	}
	leaves := []leaf{{nil, sample, map[int]bool{}}}
	for len(leaves) < n {
		// Split the heaviest leaf that still has a usable pivot: a
		// candidate present in some but not all of its solutions.
		best, bestPivot, bestScore := -1, -1, 1<<30
		for i := range leaves {
			l := &leaves[i]
			if len(l.sols) < 2 {
				continue
			}
			freq := make(map[int]int)
			for _, s := range l.sols {
				for _, g := range s {
					freq[g]++
				}
			}
			pivots := make([]int, 0, len(freq))
			for g := range freq {
				pivots = append(pivots, g)
			}
			sort.Ints(pivots) // deterministic tie-breaking
			for _, g := range pivots {
				c := freq[g]
				if _, known := labelPos[g]; !known {
					continue
				}
				if l.fixed[g] || c == 0 || c == len(l.sols) {
					continue
				}
				d := len(l.sols) - 2*c
				if d < 0 {
					d = -d
				}
				// Prefer the heaviest leaf; within it, the most balanced
				// pivot.
				score := d - len(l.sols)*4
				if score < bestScore {
					best, bestPivot, bestScore = i, g, score
				}
			}
		}
		if best < 0 {
			break // no leaf can be split further on sample evidence
		}
		l := leaves[best]
		lit := sess.Sels[labelPos[bestPivot]]
		var in, out [][]int
		for _, s := range l.sols {
			if containsSorted(s, bestPivot) {
				in = append(in, s)
			} else {
				out = append(out, s)
			}
		}
		fixed := make(map[int]bool, len(l.fixed)+1)
		for g := range l.fixed {
			fixed[g] = true
		}
		fixed[bestPivot] = true
		leaves[best] = leaf{append(append([]sat.Lit(nil), l.cube...), lit), in, fixed}
		leaves = append(leaves, leaf{append(append([]sat.Lit(nil), l.cube...), lit.Neg()), out, fixed})
	}
	if len(leaves) == 1 {
		// No sample signal at all: deterministic staircase over the
		// lowest candidate positions. Cube i selects pivot i with all
		// earlier pivots off; the last cube has every pivot off.
		cubes := make([]Cube, n)
		for i := 0; i < n; i++ {
			var cube []sat.Lit
			for j := 0; j < i; j++ {
				cube = append(cube, sess.Sels[j].Neg())
			}
			if i < n-1 {
				cube = append(cube, sess.Sels[i])
			}
			cubes[i] = Cube{Assumps: cube}
		}
		return cubes
	}
	cubes := make([]Cube, len(leaves))
	for i, l := range leaves {
		cubes[i] = Cube{Assumps: l.cube, Weight: len(l.sols)}
	}
	return cubes
}

func containsSorted(s []int, g int) bool {
	i := sort.SearchInts(s, g)
	return i < len(s) && s[i] == g
}

// fork clones the session into an independent twin: the solver is
// cloned with its learnt clauses, and the ladder, the select-line
// tables and the per-copy tables are copied, so AddTest, ladder growth
// and enumeration on the fork never touch the parent. fork only reads
// the parent, so several goroutines may fork one session at once while
// nothing else uses it.
func (sess *DiagSession) fork() *DiagSession {
	forked := &DiagSession{
		Solver:     sess.Solver.Clone(true),
		Circuit:    sess.Circuit,
		Tests:      slices.Clip(sess.Tests),
		Candidates: slices.Clip(sess.Candidates),
		Sels:       slices.Clip(sess.Sels),
		Ladder:     sess.Ladder.clone(),
		GateVars:   slices.Clip(sess.GateVars),
		TestGuards: slices.Clip(sess.TestGuards),
		unitOf:     sess.unitOf,
		unitLabel:  sess.unitLabel,
		unitPos:    slices.Clone(sess.unitPos),
		opts:       sess.opts,
	}
	if sess.opts.Golden != nil {
		// The golden simulator is stateful; every fork that may AddTest
		// needs its own.
		forked.golden = sim.New(sess.opts.Golden)
	}
	return forked
}

// ShardStats records one stage's contribution to a sharded enumeration:
// the sequential sample stage (Shard == -1) or one parallel worker.
type ShardStats struct {
	Shard     int // -1 for the sample stage
	Cubes     int // assumption cubes served by this stage
	Solutions int
	Complete  bool
	First     time.Duration // time to the stage's first solution (0 when none)
	Elapsed   time.Duration
	Stats     sat.Stats // this stage's solver work (clones start at zero)

	// Fault-tolerance counters. A failed cube attempt is retried in
	// place (Retries) until its attempt budget runs out (Abandoned); a
	// recovered panic (Panics) also replaces the worker's clone, which
	// is presumed corrupted, with a fresh fork of the parent.
	Panics    int
	Retries   int
	Abandoned int
	// Steals is always 0: workers pull from one shared list, so there is
	// nothing to steal. It stays only because the benchmark harness
	// reads it (cnf.shard_steals).
	Steals int
}

// DefaultSampleCap bounds the sequential sample stage of a sharded
// enumeration: enough solutions to estimate candidate frequencies for
// balanced cube planning, few enough that the stage stays a small
// fraction of the run.
const DefaultSampleCap = 64

// CubeOversubscription is how many cubes a sharded enumeration plans
// per worker: finer slices let the heaviest-first list even out the
// load imbalance that a one-cube-per-worker split cannot.
const CubeOversubscription = 4

// EnumerateSharded is the one enumeration driver: BSAT and the warm
// service sessions run mono and sharded Figure 3 rounds
// (enumerateInRound) through it. It returns the canonically merged
// solution list: every solution's gates sorted ascending, solutions
// ordered by size then lexicographically, and strict supersets dropped
// across stages so the merged set satisfies the essential-only
// discipline of Lemma 3. For a completed run that list is exactly the
// monolithic EnumerateRound solution set, independent of the shard
// count.
//
// shards <= 1 runs one round on the live session; the round is retired
// before returning, and perShard holds that single stage (Shard == 0).
//
// shards > 1 first runs a sample stage: a live-session round bounded to
// RoundOptions.SampleCap solutions (default DefaultSampleCap, clamped
// to MaxSolutions) that is NOT retired until the workers finish, so the
// forked clones inherit its guarded blocking clauses (and the learnt
// clauses warmed up by the stage) and assume its guard — they enumerate
// exactly the residual space. The sample settles the request without
// forking when it exhausts the space, stops on a budget or cancellation
// short of the cap, or already fills the caller's solution cap.
// Otherwise the sampled solutions plan balanced cubes (PlanCubes) and
// runCubes serves them heaviest first from one list: each worker forks
// its own clone of this session and runs one fresh round per cube on it
// under the caller's ExtraAssumps, the cube and the sample guard. The
// workers share what remains of the caller's Timeout window. A traced
// run groups the sample stage under a "sample" span and each cube
// attempt under a "cube.w<worker>" span.
//
// Before any stage the live session's ladder grows to opts.MaxK, so
// clones inherit the width instead of each growing its own, and the
// width a session keeps is the largest MaxK it has served whatever
// stage a run stops in.
//
// complete reports whether every stage exhausted its slice within the
// budgets (opts.MaxConflicts/Timeout/MaxSolutions apply per stage) and
// no post-merge truncation occurred. perShard carries one entry for
// the sample stage (Shard == -1) plus one per worker; the sample holds
// the run's first solution whenever the run forked. The worker phase
// is fault tolerant (see runCubes): a completed run's merge stays
// byte-identical to the fault-free monolithic enumeration under any
// failure schedule.
func (sess *DiagSession) EnumerateSharded(shards int, opts RoundOptions) (sols [][]int, complete bool, perShard []ShardStats) {
	sess.AtMost(opts.MaxK)
	stageOpts := opts
	live := ShardStats{Cubes: 1}
	sampleCap := 0
	var sampleSpan *trace.Span
	if shards > 1 {
		live.Shard = -1
		if sampleCap = opts.SampleCap; sampleCap <= 0 {
			sampleCap = DefaultSampleCap
		}
		if opts.MaxSolutions > 0 && opts.MaxSolutions < sampleCap {
			sampleCap = opts.MaxSolutions
		}
		stageOpts.MaxSolutions = sampleCap
		// A traced sharded run groups the sample stage under its own
		// child span, so a request trace distinguishes the monolithic
		// warm-up from the forked cube work that follows.
		if sampleSpan = trace.FromContext(opts.Ctx).Child("sample"); sampleSpan != nil {
			stageOpts.Ctx = trace.NewContext(opts.Ctx, sampleSpan)
		}
	}
	round := sess.NewRound()
	defer round.Retire()
	start := time.Now()
	before := sess.Solver.Stats
	var sample [][]int
	_, liveComplete := sess.enumerateInRound(round, stageOpts, func(_ int, gates []int) bool {
		if len(sample) == 0 {
			live.First = time.Since(start)
		}
		sample = append(sample, sortedCopy(gates))
		return true
	})
	sampleSpan.End()
	live.Solutions = len(sample)
	live.Complete = liveComplete
	live.Elapsed = time.Since(start)
	live.Stats = sess.Solver.Stats.Sub(before)
	perShard = []ShardStats{live}
	if shards <= 1 || liveComplete || len(sample) < sampleCap ||
		(opts.MaxSolutions > 0 && len(sample) >= opts.MaxSolutions) {
		SortSolutions(sample)
		return sample, liveComplete, perShard
	}

	// The worker phase shares the caller's Timeout window with the
	// sample stage instead of opening a second one.
	workerOpts := opts
	if opts.Timeout > 0 {
		if workerOpts.Timeout = opts.Timeout - live.Elapsed; workerOpts.Timeout <= 0 {
			SortSolutions(sample)
			return sample, false, perShard
		}
	}
	guard := round.Guard()
	groups, stats := sess.runCubes(shards, workerOpts, sample,
		func(clone *DiagSession, cube Cube, budget RoundOptions) ([][]int, bool) {
			// Caller restrictions stay in force; the cube and the sample
			// guard are appended to them.
			budget.ExtraAssumps = append(append(append([]sat.Lit(nil),
				opts.ExtraAssumps...), cube.Assumps...), guard)
			r := clone.NewRound()
			var local [][]int
			_, c := clone.enumerateInRound(r, budget, func(_ int, gates []int) bool {
				local = append(local, sortedCopy(gates))
				return true
			})
			r.Retire()
			return local, c
		})

	complete = true
	for _, st := range stats {
		complete = complete && st.Complete
	}
	perShard = append(perShard, stats...)
	sols = MergeShardSolutions(append([][][]int{sample}, groups...))
	if opts.MaxSolutions > 0 && len(sols) > opts.MaxSolutions {
		sols, complete = sols[:opts.MaxSolutions], false
	}
	return sols, complete, perShard
}

// DefaultCubeRetries is the per-cube retry budget of a sharded run: how
// often a worker retries one cube in place after a panic or an injected
// transient failure before it abandons the cube, which makes the run
// report complete=false.
const DefaultCubeRetries = 3

// FailpointCube is the failpoint evaluated before every cube attempt of
// a sharded run. An injected error or cancellation fails the attempt
// without executing it; an injected panic unwinds through the worker's
// recover barrier and makes the worker re-fork its clone.
const FailpointCube = "cnf/cube"

// cubePanic wraps a value recovered from a panicking cube attempt.
type cubePanic struct{ val any }

func (p cubePanic) Error() string { return fmt.Sprintf("cnf: cube worker panicked: %v", p.val) }

// runCube executes one cube attempt behind a recover barrier and the
// FailpointCube injection point. A recovered panic comes back as a
// cubePanic failure; an injected transient failure fails the attempt
// before run executes, so the clone stays clean for the retry.
func runCube(clone *DiagSession, cube Cube, budget RoundOptions,
	run func(*DiagSession, Cube, RoundOptions) ([][]int, bool)) (sols [][]int, compl bool, failure error) {
	defer func() {
		if v := recover(); v != nil {
			sols, compl, failure = nil, false, cubePanic{val: v}
		}
	}()
	if err := failpoint.Inject(FailpointCube); err != nil {
		return nil, false, err
	}
	sols, compl = run(clone, cube, budget)
	return sols, compl, nil
}

// runCubes is the worker harness EnumerateSharded executes its cubes
// on. It plans balanced cubes from the sample and sorts them stably by
// descending Weight into one list. Up to `shards` workers pull the next
// cube off that list through an atomic counter, which schedules
// dynamically and longest first: a straggler holds up only the cube it
// is serving. Worker goroutines are bounded by GOMAXPROCS so a
// saturated machine runs them back to back instead of thrashing. Each
// worker forks its own clone once it holds its slot and drives `run`
// on it once per served cube, sequentially, with stage-scoped budgets:
// each cube receives what remains of the phase's one shared deadline
// (opts.Timeout) and of the MaxSolutions allowance (the sample's finds
// count against it), so a stage can never exceed the budgets the
// caller configured.
//
// The forks run concurrently with each other and with the workers'
// solves. That is safe because the parent session is idle for the
// whole worker phase (EnumerateSharded neither solves on it nor retires
// its round before runCubes returns) and fork only reads it:
// Solver.Clone copies the parent's arrays and leaves them untouched.
//
// The harness is fault tolerant. Each attempt runs behind a recover
// barrier and the FailpointCube injection point; a failed attempt's
// partial output is discarded (a retry re-enumerates the cube from
// scratch — the canonical merge drops supersets, not duplicates) and
// the worker retries the cube in place up to DefaultCubeRetries times
// before it abandons it and pulls the next one. A recovered panic also
// replaces the worker's clone, presumed corrupted, with a fresh fork of
// the parent, so no worker dies, no cube is stranded and no worker
// waits on another. The per-worker ShardStats count every fault:
// Panics, Retries, Abandoned.
//
// run returns the cube's solutions (each a sorted gate set) and whether
// the cube's slice was exhausted. runCubes returns the per-worker
// solution groups and stats (First is cube-granular; the sample stage
// owns the true first-solution time). A worker's Complete clears on an
// incomplete or abandoned cube and when it stops early (cancellation,
// the deadline, a spent solution allowance), so every planned cube was
// served in full exactly when every worker reports Complete.
func (sess *DiagSession) runCubes(shards int, opts RoundOptions, sample [][]int,
	run func(clone *DiagSession, cube Cube, budget RoundOptions) ([][]int, bool)) (groups [][][]int, stats []ShardStats) {

	cubes := sess.PlanCubes(sample, shards*CubeOversubscription)
	slices.SortStableFunc(cubes, func(a, b Cube) int { return cmp.Compare(b.Weight, a.Weight) })
	workers := min(shards, len(cubes))
	groups = make([][][]int, workers)
	stats = make([]ShardStats, workers)
	// A traced run attaches one child span per cube attempt to the
	// request span; Span methods are goroutine-safe, so every worker
	// attaches to the same parent concurrently.
	span := trace.FromContext(opts.Ctx)
	spanCtx := opts.Ctx
	if spanCtx == nil {
		spanCtx = context.Background()
	}
	// One deadline covers the whole worker phase — not one window per
	// worker — so a saturated machine serializing the workers still
	// honors the caller's Timeout instead of multiplying it.
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	var next atomic.Int64 // index of the next unserved cube
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := range workers {
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			st := ShardStats{Shard: i, Complete: true}
			clone := sess.fork()
			var local [][]int
			// budget scopes one attempt to what remains of the run; ok is
			// false once the worker must stop.
			budget := func() (b RoundOptions, ok bool) {
				b = opts
				if opts.Ctx != nil && opts.Ctx.Err() != nil {
					return b, false
				}
				if opts.MaxSolutions > 0 {
					if b.MaxSolutions = opts.MaxSolutions - len(sample) - len(local); b.MaxSolutions <= 0 {
						return b, false
					}
				}
				if !deadline.IsZero() {
					if b.Timeout = time.Until(deadline); b.Timeout <= 0 {
						return b, false
					}
				}
				return b, true
			}
		serve:
			for c := int(next.Add(1)) - 1; c < len(cubes); c = int(next.Add(1)) - 1 {
				for tries := 0; ; tries++ {
					b, ok := budget()
					if !ok {
						st.Complete = false
						break serve
					}
					var cubeSpan *trace.Span
					if span != nil {
						cubeSpan = span.Child(fmt.Sprintf("cube.w%d", i))
						b.Ctx = trace.NewContext(spanCtx, cubeSpan)
					}
					sols, compl, failure := runCube(clone, cubes[c], b, run)
					if cubeSpan != nil {
						cubeSpan.Counter("solutions", int64(len(sols)))
						if failure != nil {
							cubeSpan.SetDetail("failed")
						}
						cubeSpan.End()
					}
					if failure == nil {
						st.Cubes++ // Cubes counts served attempts, not failed ones
						if len(local) == 0 && len(sols) > 0 {
							st.First = time.Since(start)
						}
						local = append(local, sols...)
						st.Complete = st.Complete && compl
						break
					}
					if _, isPanic := failure.(cubePanic); isPanic {
						st.Panics++
						st.Stats = st.Stats.Add(clone.Solver.Stats)
						clone = sess.fork()
					}
					if tries == DefaultCubeRetries {
						st.Abandoned++
						st.Complete = false
						break
					}
					st.Retries++
				}
			}
			st.Solutions = len(local)
			st.Elapsed = time.Since(start)
			st.Stats = st.Stats.Add(clone.Solver.Stats)
			groups[i], stats[i] = local, st
		}()
	}
	wg.Wait()
	return groups, stats
}

func sortedCopy(gates []int) []int {
	g := append([]int(nil), gates...)
	sort.Ints(g)
	return g
}

// MergeShardSolutions merges per-stage solution lists (each solution a
// sorted gate set) into the canonical order and drops strict supersets
// across stages. Stage-local enumeration already blocks supersets
// within a stage; a superset surviving in one cube because its witness
// subset lives in another is exactly what the cross-stage pass removes.
func MergeShardSolutions(groups [][][]int) [][]int {
	var all [][]int
	for _, g := range groups {
		all = append(all, g...)
	}
	SortSolutions(all)
	return DropSupersets(all)
}

// SortSolutions orders solutions canonically: by size, then
// lexicographically by gate IDs. Every merge point sorts with this so
// diagnosis output is byte-identical regardless of shard or worker
// count. The per-solution gate slices must already be sorted.
func SortSolutions(sols [][]int) {
	slices.SortFunc(sols, CompareSolution)
}

// CompareSolution is the canonical solution order — size first, then
// lexicographic over the gate IDs — as a three-way comparison for
// slices.SortFunc. It is the single definition every layer sorts by
// (core.SolutionSet.Canonicalize delegates here), so sharded merges
// and engine reports can never disagree on order.
func CompareSolution(a, b []int) int {
	if len(a) != len(b) {
		return cmp.Compare(len(a), len(b))
	}
	return slices.Compare(a, b)
}

// DropSupersets removes every solution that strictly contains an
// earlier (hence no larger) one. The input must be canonically sorted;
// the relative order of the survivors is preserved.
func DropSupersets(sols [][]int) [][]int {
	kept := sols[:0]
	for _, s := range sols {
		dominated := false
		for _, k := range kept {
			if len(k) < len(s) && subsetOfSorted(k, s) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, s)
		}
	}
	return kept
}

// subsetOfSorted reports a ⊆ b for ascending-sorted int slices.
func subsetOfSorted(a, b []int) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i == len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}
