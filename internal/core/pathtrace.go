package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sim"
)

// PTPolicy selects which controlling input path tracing marks when a
// gate has several inputs at controlling value. The paper's Figure 1
// marks exactly one (the nondeterminism behind "PT either marks {A,B,D}
// or {A,C,D}" in the Lemma 2 proof); MarkAll is the conservative variant
// that marks every controlling input.
type PTPolicy int

// Marking policies.
const (
	MarkFirst  PTPolicy = iota // first controlling input in pin order (deterministic)
	MarkRandom                 // a seeded random controlling input
	MarkAll                    // every controlling input (superset variant)
)

// String names the policy.
func (p PTPolicy) String() string {
	switch p {
	case MarkFirst:
		return "mark-first"
	case MarkRandom:
		return "mark-random"
	case MarkAll:
		return "mark-all"
	default:
		return fmt.Sprintf("PTPolicy(%d)", int(p))
	}
}

// PTOptions configures path tracing.
type PTOptions struct {
	Policy PTPolicy
	Seed   int64 // used by MarkRandom
}

// PathTrace implements the PT procedure of Figure 1 on a single test:
// simulate the vector, mark the gate driving the erroneous output, and
// walk backward over sensitized paths — at each visited gate, if some
// input carries the gate's controlling value, mark one such input (per
// the policy), otherwise mark all inputs. Gates with no controlling
// value (XOR/XNOR, truth tables) mark all inputs. The returned candidate
// set Ci contains the visited internal gates in ascending ID order;
// primary inputs terminate traces and are not candidates (corrections
// apply at gates, mirroring BSAT's candidate gates).
//
// The simulator must wrap the faulty implementation the test failed on.
//
// PathTrace is the one-shot reference entry point; it simulates the
// vector over the whole circuit and runs the single reverse-sweep
// implementation of the marking (traceSweep), which BSIM's event-driven
// traces are equivalence-tested against.
func PathTrace(s *sim.Simulator, t circuit.Test, opts PTOptions) []int {
	c := s.Circuit()
	s.RunVector(t.Vector)
	return newTraceScratch(c).traceSweep(c, s.OutputBit, t, opts)
}

// BSIMResult is the outcome of BasicSimDiagnose: one candidate set per
// test plus the per-gate mark counts M(g).
type BSIMResult struct {
	Sets      [][]int // Ci per test, ascending gate IDs
	MarkCount []int   // M(g) = |{i : g in Ci}| per gate ID
	Elapsed   time.Duration
}

// BSIM runs BasicSimDiagnose (Figure 1) on the faulty implementation c.
// Unlike the one-simulation-per-test reference (BSIMReference), tests
// are packed 64 to a word-parallel evaluation and each test's backward
// trace is event-driven (it visits marked gates only, bucketed by
// level), with the independent per-test traces sharded across a bounded
// worker pool. The result is byte-identical to BSIMReference for every
// policy and worker count.
func BSIM(c *circuit.Circuit, tests circuit.TestSet, opts PTOptions) *BSIMResult {
	return BSIMWorkers(c, tests, opts, 0)
}

// bsimState bundles the per-worker machinery of one BSIM sweep. States
// are pooled per circuit (see bsimPools): the simulator value arrays,
// trace buckets and cone bitsets are recycled across calls, so repeated
// sweeps over the same circuit — the diagnosis serving pattern — do not
// re-allocate or re-zero them.
type bsimState struct {
	s       *sim.Simulator
	scratch *traceScratch
	cone    circuit.Bitset
}

// bsimPools maps circuits to pools of *bsimState. The map is bounded:
// once it holds maxBSIMPools circuits it is cleared wholesale, so a
// process sweeping many distinct circuits cannot pin them (and their
// cached analyses) forever — eviction only costs re-warming the pool.
var (
	bsimPoolMu sync.Mutex
	bsimPools  = make(map[*circuit.Circuit]*sync.Pool)
)

const maxBSIMPools = 8

func bsimPool(c *circuit.Circuit) *sync.Pool {
	bsimPoolMu.Lock()
	defer bsimPoolMu.Unlock()
	p, ok := bsimPools[c]
	if !ok {
		if len(bsimPools) >= maxBSIMPools {
			clear(bsimPools)
		}
		p = &sync.Pool{}
		bsimPools[c] = p
	}
	return p
}

func getBSIMState(c *circuit.Circuit) *bsimState {
	if st, ok := bsimPool(c).Get().(*bsimState); ok {
		return st
	}
	return &bsimState{s: sim.New(c), scratch: newTraceScratch(c), cone: circuit.NewBitset(len(c.Gates))}
}

func putBSIMState(c *circuit.Circuit, st *bsimState) {
	bsimPool(c).Put(st)
}

// BSIMWorkers is BSIM with an explicit worker-pool bound: 0 selects
// runtime.NumCPU, 1 forces a serial run. Results do not depend on the
// worker count.
func BSIMWorkers(c *circuit.Circuit, tests circuit.TestSet, opts PTOptions, workers int) *BSIMResult {
	start := time.Now()
	res := &BSIMResult{
		Sets:      make([][]int, len(tests)),
		MarkCount: make([]int, len(c.Gates)),
	}
	an := c.Analysis()
	levels := an.Levels
	numBatches := (len(tests) + 63) / 64
	switch {
	case numBatches == 0:
	case numBatches == 1:
		// One shared 64-lane evaluation, restricted to the union of the
		// failing outputs' fanin cones (the traces never read values
		// outside them); the per-test traces read the shared value words
		// (each through its own lane) concurrently.
		states := make([]*bsimState, poolSize(len(tests), workers))
		for w := range states {
			states[w] = getBSIMState(c)
		}
		st := states[0]
		vecs := make([][]bool, len(tests))
		st.cone.Clear()
		for i, t := range tests {
			vecs[i] = t.Vector
			st.cone.Or(an.FaninConeBits(t.Output))
		}
		st.s.RunCone(sim.PackVectors(vecs, len(c.Inputs)), st.cone)
		vals := st.s.Values()
		parallelFor(len(tests), workers, func(w, i int) {
			res.Sets[i] = states[w].scratch.trace(c, levels, laneBit(vals, uint(i)), tests[i], perTestPT(opts, i))
		})
		for _, st := range states {
			putBSIMState(c, st)
		}
	default:
		// Whole 64-test batches sharded; each worker owns a simulator.
		states := make([]*bsimState, poolSize(numBatches, workers))
		for w := range states {
			states[w] = getBSIMState(c)
		}
		parallelFor(numBatches, workers, func(w, bi int) {
			lo := bi * 64
			hi := lo + 64
			if hi > len(tests) {
				hi = len(tests)
			}
			batch := tests[lo:hi]
			vecs := make([][]bool, len(batch))
			st := states[w]
			st.cone.Clear()
			for j, t := range batch {
				vecs[j] = t.Vector
				st.cone.Or(an.FaninConeBits(t.Output))
			}
			st.s.RunCone(sim.PackVectors(vecs, len(c.Inputs)), st.cone)
			vals := st.s.Values()
			for j, t := range batch {
				res.Sets[lo+j] = st.scratch.trace(c, levels, laneBit(vals, uint(j)), t, perTestPT(opts, lo+j))
			}
		})
		for _, st := range states {
			putBSIMState(c, st)
		}
	}
	// Mark counts accumulate in test order, off the parallel section, so
	// the result is deterministic.
	for _, ci := range res.Sets {
		for _, g := range ci {
			res.MarkCount[g]++
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// BSIMReference is the original BasicSimDiagnose loop — one full
// circuit simulation per test via PathTrace. It is the reference oracle
// the batched, event-driven BSIM is equivalence-tested against, and the
// "before" side of the benchmark comparison. No production path calls
// it; keep it for those comparisons.
func BSIMReference(c *circuit.Circuit, tests circuit.TestSet, opts PTOptions) *BSIMResult {
	start := time.Now()
	s := sim.New(c)
	res := &BSIMResult{
		Sets:      make([][]int, len(tests)),
		MarkCount: make([]int, len(c.Gates)),
	}
	for i, t := range tests {
		ci := PathTrace(s, t, perTestPT(opts, i))
		res.Sets[i] = ci
		for _, g := range ci {
			res.MarkCount[g]++
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// perTestPT derives the per-test path-trace options: MarkRandom reseeds
// per test so traces stay independent (and parallelizable).
func perTestPT(opts PTOptions, i int) PTOptions {
	if opts.Policy == MarkRandom {
		opts.Seed += int64(i)
	}
	return opts
}

// laneBit adapts one lane of a 64-lane value array to the single-bit
// reader interface the traces consume.
func laneBit(vals []uint64, lane uint) func(int) bool {
	return func(id int) bool { return vals[id]>>lane&1 == 1 }
}

// traceScratch holds the reusable buffers of the event-driven path
// trace: the mark flags, the per-level worklist buckets and the
// controlling-input scratch. One per goroutine; after warm-up a trace
// allocates only its output slice.
type traceScratch struct {
	marked  []bool
	buckets [][]int32
	ctrl    []int
}

func newTraceScratch(c *circuit.Circuit) *traceScratch {
	return &traceScratch{
		marked:  make([]bool, len(c.Gates)),
		buckets: make([][]int32, c.Analysis().MaxLevel+1),
	}
}

// mark flags gate f and schedules it in its level bucket.
func (ts *traceScratch) mark(levels []int, f int) {
	if !ts.marked[f] {
		ts.marked[f] = true
		ts.buckets[levels[f]] = append(ts.buckets[levels[f]], int32(f))
	}
}

// trace runs the Figure 1 marking for one test over the gate values
// exposed by bit, visiting marked gates only. Marks flow strictly
// downward in level (a marker's fanin sits on a lower level), so
// draining the level buckets in descending order visits every gate
// after all gates that could mark it; the candidate set is identical to
// PathTrace's full reverse sweep. MarkRandom consumes random numbers in
// the reverse sweep's descending-ID visit order, which level buckets do
// not preserve, so it takes the exact-order sweep fallback.
func (ts *traceScratch) trace(c *circuit.Circuit, levels []int, bit func(int) bool, t circuit.Test, opts PTOptions) []int {
	if opts.Policy == MarkRandom {
		return ts.traceSweep(c, bit, t, opts)
	}
	ts.mark(levels, t.Output)
	var ci []int
	for l := levels[t.Output]; l >= 0; l-- {
		b := ts.buckets[l]
		for i := 0; i < len(b); i++ { // bucket cannot grow: marks go to lower levels
			g := int(b[i])
			gate := &c.Gates[g]
			if gate.Kind == logic.Input {
				continue
			}
			ci = append(ci, g)
			ctrlVal, hasCtrl := gate.Kind.Controlling()
			ctrl := ts.ctrl[:0]
			if hasCtrl {
				for _, f := range gate.Fanin {
					if bit(f) == ctrlVal {
						ctrl = append(ctrl, f)
					}
				}
			}
			switch {
			case len(ctrl) == 0:
				for _, f := range gate.Fanin {
					ts.mark(levels, f)
				}
			case opts.Policy == MarkAll:
				for _, f := range ctrl {
					ts.mark(levels, f)
				}
			default: // MarkFirst
				ts.mark(levels, ctrl[0])
			}
			ts.ctrl = ctrl[:0]
		}
		for _, g := range b {
			ts.marked[g] = false
		}
		ts.buckets[l] = b[:0]
	}
	sort.Ints(ci)
	return ci
}

// traceSweep is the full descending-ID reverse sweep over reused
// buffers — the exact visit order of PathTrace, needed for MarkRandom's
// random-number stream.
func (ts *traceScratch) traceSweep(c *circuit.Circuit, bit func(int) bool, t circuit.Test, opts PTOptions) []int {
	var rng *rand.Rand
	if opts.Policy == MarkRandom {
		rng = rand.New(rand.NewSource(opts.Seed))
	}
	ts.marked[t.Output] = true
	var ci []int
	for g := len(c.Gates) - 1; g >= 0; g-- {
		if !ts.marked[g] {
			continue
		}
		ts.marked[g] = false
		gate := &c.Gates[g]
		if gate.Kind == logic.Input {
			continue
		}
		ci = append(ci, g)
		ctrlVal, hasCtrl := gate.Kind.Controlling()
		ctrl := ts.ctrl[:0]
		if hasCtrl {
			for _, f := range gate.Fanin {
				if bit(f) == ctrlVal {
					ctrl = append(ctrl, f)
				}
			}
		}
		switch {
		case len(ctrl) == 0:
			for _, f := range gate.Fanin {
				ts.marked[f] = true
			}
		case opts.Policy == MarkAll:
			for _, f := range ctrl {
				ts.marked[f] = true
			}
		case opts.Policy == MarkRandom:
			ts.marked[ctrl[rng.Intn(len(ctrl))]] = true
		default: // MarkFirst
			ts.marked[ctrl[0]] = true
		}
		ts.ctrl = ctrl[:0]
	}
	sort.Ints(ci)
	return ci
}

// Union returns the set of all marked gates (∪ Ci), ascending.
func (r *BSIMResult) Union() []int {
	var u []int
	for g, m := range r.MarkCount {
		if m > 0 {
			u = append(u, g)
		}
	}
	return u
}

// Intersection returns ∩ Ci — under a single-error assumption the actual
// error site lies in this set.
func (r *BSIMResult) Intersection() []int {
	var out []int
	for g, m := range r.MarkCount {
		if m == len(r.Sets) && m > 0 {
			out = append(out, g)
		}
	}
	return out
}

// MaxMarked returns Gmax: the gates marked by the maximal number of
// tests (the ordering heuristic for multiple errors).
func (r *BSIMResult) MaxMarked() []int {
	max := 0
	for _, m := range r.MarkCount {
		if m > max {
			max = m
		}
	}
	if max == 0 {
		return nil
	}
	var out []int
	for g, m := range r.MarkCount {
		if m == max {
			out = append(out, g)
		}
	}
	return out
}
