package cnf

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/failpoint"
	"repro/internal/sat"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Cube is one assumption-scoped slice of the solution space: the
// assumptions confine enumeration to the corrections satisfying them,
// and Weight estimates the slice's load (sampled solutions inside it)
// for scheduling. A nil Assumps cube is unconstrained.
type Cube struct {
	Assumps []sat.Lit
	Weight  int
}

// Shard is one worker of a forked enumeration: an independent session
// over a cloned solver plus the assumption cubes it serves
// sequentially. The cubes of one fork partition the projected solution
// space — every correction satisfies exactly one cube — so the workers
// never repeat a solution, and the canonical merge of their outputs
// equals the monolithic enumeration.
//
// Slices are scoped purely by assumptions, never by asserted clauses:
// the forked solver stays an unconstrained copy of the parent
// encoding, assumptions propagate from decision level 0 (no auxiliary
// encoding taxing every solve), and one clone serves any number of
// cubes in turn.
type Shard struct {
	// Session is the forked session: cloned solver plus copied per-copy
	// tables, so AddTest and enumeration on the shard never touch the
	// parent (or the sibling shards).
	Session *DiagSession
	// Index and Of identify the worker within its fork.
	Index, Of int
	// Cubes lists the assumption cubes this worker enumerates, in order.
	Cubes []Cube
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
	// sessions), which are not selIndex keys; map them to select
	// positions explicitly.
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

// ScheduleCubes distributes cubes onto n workers by longest-processing-
// time-first over the sampled weights: cubes sorted by descending
// weight (ties by planning order) each go to the least-loaded worker.
// Deterministic; returns at most n non-empty worker loads.
func ScheduleCubes(cubes []Cube, n int) [][]Cube {
	if n < 1 {
		n = 1
	}
	if n > len(cubes) {
		n = len(cubes)
	}
	order := make([]int, len(cubes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cubes[order[a]].Weight > cubes[order[b]].Weight })
	workers := make([][]Cube, n)
	loads := make([]int, n)
	for _, ci := range order {
		best := 0
		for w := 1; w < n; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		workers[best] = append(workers[best], cubes[ci])
		loads[best] += cubes[ci].Weight + 1 // +1 so zero-weight cubes spread too
	}
	return workers
}

// fork clones the session into an independent twin: the solver is
// cloned with its learnt clauses and the ladder tree and per-copy
// tables are copied, so AddTest, ladder growth and enumeration on the
// fork never touch the parent.
func (sess *DiagSession) fork() *DiagSession {
	forked := &DiagSession{
		Solver:     sess.Solver.Clone(true),
		Circuit:    sess.Circuit,
		Tests:      append(circuit.TestSet(nil), sess.Tests...),
		Candidates: sess.Candidates,
		Sels:       sess.Sels,
		Ladder:     sess.Ladder.clone(),
		GateVars:   append([][]sat.Var(nil), sess.GateVars...),
		TestGuards: append([]sat.Lit(nil), sess.TestGuards...),
		selIndex:   sess.selIndex,
		opts:       sess.opts,
	}
	if sess.opts.Golden != nil {
		// The golden simulator is stateful; every fork that may AddTest
		// needs its own.
		forked.golden = sim.New(sess.opts.Golden)
	}
	return forked
}

// ForkWorkers clones the session once per worker load and couples each
// clone with its cubes.
// The parent session stays untouched and fully usable.
func (sess *DiagSession) ForkWorkers(workers [][]Cube) []*Shard {
	shards := make([]*Shard, len(workers))
	for i, cubes := range workers {
		shards[i] = &Shard{Session: sess.fork(), Index: i, Of: len(workers), Cubes: cubes}
	}
	return shards
}

// Release drops the shard's references to its cloned session (and hence
// the cloned solver's clause database) so a finished or cancelled worker
// frees its clone for collection immediately, instead of keeping every
// clone alive until the whole sharded run returns. Idempotent; the shard
// must not be used for enumeration afterwards.
func (sh *Shard) Release() {
	sh.Session = nil
	sh.Cubes = nil
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

	// Fault-tolerance counters. A worker that panics is presumed to hold
	// a corrupted clone and exits (Panics counts the recovered panic);
	// the cube it was serving is requeued for a surviving worker
	// (Retries) until its attempt budget runs out (Abandoned). Steals
	// counts cubes this worker pulled from another worker's pending list
	// — load balancing around stragglers and replacing dead workers.
	Panics    int
	Retries   int
	Steals    int
	Abandoned int
}

// DefaultSampleCap bounds the sequential sample stage of a sharded
// enumeration: enough solutions to estimate candidate frequencies for
// balanced cube planning, few enough that the stage stays a small
// fraction of the run.
const DefaultSampleCap = 64

// CubeOversubscription is how many cubes a sharded enumeration plans
// per worker: finer slices let the longest-processing-time-first
// schedule even out the load imbalance that a one-cube-per-worker
// split cannot.
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
// Otherwise the sampled solutions plan balanced cubes
// (PlanCubes/ScheduleCubes) and runCubes drives one round per served
// cube on the cloned workers, each a fresh round on its clone under the
// caller's ExtraAssumps, the cube and the sample guard. The workers
// share what remains of the caller's Timeout window. A traced run
// groups the sample stage under a "sample" span and each cube under a
// "cube.w<worker>" span.
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
	groups, stats, drained := sess.runCubes(shards, workerOpts, sample,
		func(sh *Shard, cube Cube, budget RoundOptions) ([][]int, bool) {
			// Caller restrictions stay in force; the cube and the sample
			// guard are appended to them.
			budget.ExtraAssumps = append(append(append([]sat.Lit(nil),
				opts.ExtraAssumps...), cube.Assumps...), guard)
			r := sh.Session.NewRound()
			var local [][]int
			_, c := sh.Session.enumerateInRound(r, budget, func(_ int, gates []int) bool {
				local = append(local, sortedCopy(gates))
				return true
			})
			r.Retire()
			return local, c
		})

	complete = drained
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
// often one cube may be requeued after a worker panic or an injected
// transient failure before it is abandoned, which makes the run report
// complete=false.
const DefaultCubeRetries = 3

// FailpointCube is the failpoint evaluated before every cube attempt of
// a sharded run. An injected error or cancellation fails the attempt
// without executing it; an injected panic unwinds through the worker's
// recover barrier and retires the worker.
const FailpointCube = "cnf/cube"

// cubeAttempt tracks one planned cube through the work queue: its
// scheduling home (the worker whose pending list it starts on) and how
// many attempts have failed so far.
type cubeAttempt struct {
	cube  Cube
	home  int
	tries int
}

// cubeQueue is the shared work queue of a fault-tolerant worker phase.
// Every worker owns a pending list (its LPT schedule), pops from it
// first, and steals from the longest other list when its own runs dry —
// which both balances stragglers and reassigns the load of a dead
// worker. A popped attempt counts as inflight until it is served
// (done), returned for retry (requeue), or given up (forfeit); next
// blocks while cubes are inflight because a failing one may come back.
type cubeQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	pending  [][]*cubeAttempt
	inflight int
	unserved int
	closed   bool
}

func newCubeQueue(loads [][]Cube) *cubeQueue {
	q := &cubeQueue{pending: make([][]*cubeAttempt, len(loads))}
	q.cond = sync.NewCond(&q.mu)
	for w, cubes := range loads {
		list := make([]*cubeAttempt, len(cubes))
		for i := range cubes {
			list[i] = &cubeAttempt{cube: cubes[i], home: w}
		}
		q.pending[w] = list
	}
	return q
}

// next blocks until an attempt is available for the worker (own list
// first, then stolen from the longest other list — lowest index on
// ties, deterministically), every cube is served, or the queue is
// closed. A nil attempt means the worker is finished.
func (q *cubeQueue) next(worker int) (att *cubeAttempt, stolen bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return nil, false
		}
		if own := q.pending[worker]; len(own) > 0 {
			q.pending[worker] = own[1:]
			q.inflight++
			return own[0], false
		}
		victim := -1
		for w := range q.pending {
			if len(q.pending[w]) > 0 && (victim < 0 || len(q.pending[w]) > len(q.pending[victim])) {
				victim = w
			}
		}
		if victim >= 0 {
			att = q.pending[victim][0]
			q.pending[victim] = q.pending[victim][1:]
			q.inflight++
			return att, true
		}
		if q.inflight == 0 {
			return nil, false
		}
		q.cond.Wait()
	}
}

// done marks an inflight attempt as served.
func (q *cubeQueue) done() {
	q.mu.Lock()
	q.inflight--
	q.mu.Unlock()
	q.cond.Broadcast()
}

// requeue returns a failed attempt to its home list for another try;
// the home list stays stealable even when its owner has died.
func (q *cubeQueue) requeue(att *cubeAttempt) {
	q.mu.Lock()
	q.pending[att.home] = append(q.pending[att.home], att)
	q.inflight--
	q.mu.Unlock()
	q.cond.Broadcast()
}

// forfeit drops an inflight attempt without serving it (retry budget
// exhausted, or the shared deadline passed after the pop); the phase
// can no longer drain.
func (q *cubeQueue) forfeit() {
	q.mu.Lock()
	q.unserved++
	q.inflight--
	q.mu.Unlock()
	q.cond.Broadcast()
}

// close aborts the phase: blocked workers return immediately and the
// remaining cubes stay unserved.
func (q *cubeQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// drained reports whether every planned cube was fully served.
func (q *cubeQueue) drained() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.unserved > 0 || q.inflight > 0 {
		return false
	}
	for _, list := range q.pending {
		if len(list) > 0 {
			return false
		}
	}
	return true
}

// cubePanic wraps a value recovered from a panicking cube attempt.
type cubePanic struct{ val any }

func (p cubePanic) Error() string { return fmt.Sprintf("cnf: cube worker panicked: %v", p.val) }

// runCube executes one cube attempt behind a recover barrier and the
// FailpointCube injection point. A recovered panic comes back as a
// cubePanic failure; an injected transient failure fails the attempt
// before run executes, so the clone stays clean for the retry.
func runCube(sh *Shard, cube Cube, budget RoundOptions,
	run func(*Shard, Cube, RoundOptions) ([][]int, bool)) (sols [][]int, compl bool, failure error) {
	defer func() {
		if v := recover(); v != nil {
			sols, compl, failure = nil, false, cubePanic{val: v}
		}
	}()
	if err := failpoint.Inject(FailpointCube); err != nil {
		return nil, false, err
	}
	sols, compl = run(sh, cube, budget)
	return sols, compl, nil
}

// runCubes is the worker harness EnumerateSharded executes its cubes
// on: it plans balanced cubes from the sample, LPT-schedules them onto
// `shards` cloned workers as per-worker pending lists of a shared work
// queue, and drives `run` once per served (worker, cube) — calls for
// one worker are sequential, in its own goroutine — with stage-scoped
// budgets: each cube receives the worker's remaining Timeout window and
// remaining MaxSolutions allowance (the sample's finds count against
// it), so a stage can never exceed the budgets the caller configured.
// Worker goroutines are bounded by GOMAXPROCS so a saturated machine
// runs them back to back instead of thrashing.
//
// The harness is fault tolerant. Each attempt runs behind a recover
// barrier and the FailpointCube injection point; a failed attempt's
// partial output is discarded (a retry re-enumerates the cube from
// scratch — the canonical merge drops supersets, not duplicates) and
// the cube is requeued up to DefaultCubeRetries times before it is
// abandoned. A recovered panic additionally retires the worker — its
// clone is presumed corrupted — and idle workers steal the pending
// cubes of dead or lagging ones. The per-worker ShardStats account
// every fault: Panics, Retries, Steals, Abandoned.
//
// run returns the cube's solutions (each a sorted gate set) and whether
// the cube's slice was exhausted. runCubes returns the per-worker
// solution groups and stats (First is cube-granular; the sample stage
// owns the true first-solution time), plus drained: whether every
// planned cube was fully served. Abandoned cubes, cubes stranded by
// dead workers, and deadline leftovers all clear drained, so the caller
// must report complete = drained && every stat Complete. opts.Timeout
// bounds the whole worker phase with one shared deadline.
func (sess *DiagSession) runCubes(shards int, opts RoundOptions, sample [][]int,
	run func(sh *Shard, cube Cube, budget RoundOptions) ([][]int, bool)) (groups [][][]int, stats []ShardStats, drained bool) {

	loads := ScheduleCubes(sess.PlanCubes(sample, shards*CubeOversubscription), shards)
	forks := sess.ForkWorkers(loads)
	queue := newCubeQueue(loads)
	groups = make([][][]int, len(forks))
	stats = make([]ShardStats, len(forks))
	// A traced run attaches one child span per served cube to the
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
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	wg.Add(len(forks))
	for i, sh := range forks {
		go func(i int, sh *Shard) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			st := ShardStats{Shard: i, Complete: true}
			var local [][]int
			var first time.Duration
			for alive := true; alive; {
				// A cancelled run must not pop further cubes: close the
				// queue so blocked siblings exit too. The cubes already
				// popped abort promptly through the same ctx.
				if opts.Ctx != nil && opts.Ctx.Err() != nil {
					st.Complete = false
					queue.close()
					break
				}
				if opts.MaxSolutions > 0 && opts.MaxSolutions-len(sample)-len(local) <= 0 {
					st.Complete = false
					break
				}
				att, stolen := queue.next(i)
				if att == nil {
					break
				}
				budget := opts
				if !deadline.IsZero() {
					if budget.Timeout = time.Until(deadline); budget.Timeout <= 0 {
						st.Complete = false
						queue.forfeit()
						break
					}
				}
				if opts.MaxSolutions > 0 {
					budget.MaxSolutions = opts.MaxSolutions - len(sample) - len(local)
				}
				if stolen {
					st.Steals++
				}
				var cubeSpan *trace.Span
				if span != nil {
					cubeSpan = span.Child(fmt.Sprintf("cube.w%d", i))
					if stolen {
						cubeSpan.SetDetail("stolen")
					}
					budget.Ctx = trace.NewContext(spanCtx, cubeSpan)
				}
				sols, compl, failure := runCube(sh, att.cube, budget, run)
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
						first = time.Since(start)
					}
					local = append(local, sols...)
					st.Complete = st.Complete && compl
					queue.done()
					continue
				}
				if _, isPanic := failure.(cubePanic); isPanic {
					st.Panics++
					alive = false // clone presumed corrupted; worker retires
				}
				if att.tries++; att.tries > DefaultCubeRetries {
					st.Abandoned++
					st.Complete = false
					queue.forfeit()
				} else {
					st.Retries++
					queue.requeue(att)
				}
			}
			groups[i] = local
			st.Solutions = len(local)
			st.First = first
			st.Elapsed = time.Since(start)
			st.Stats = sh.Session.Solver.Stats
			stats[i] = st
			// The clone's work counters are captured above; drop the
			// clone itself now so cancelled runs release solver memory
			// as each worker exits rather than at wg.Wait.
			sh.Release()
		}(i, sh)
	}
	wg.Wait()
	return groups, stats, queue.drained()
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

// LessSolution reports whether a precedes b in the canonical order.
func LessSolution(a, b []int) bool { return CompareSolution(a, b) < 0 }

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
