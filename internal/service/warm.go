package service

import (
	"context"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/sat"
	"repro/internal/trace"
)

// RunSpec is everything a warm diagnosis request sets: all of it is
// assumption-scoped (or merely a budget) on the live session, which the
// circuit fingerprint alone identifies.
type RunSpec struct {
	// K is the correction-size ladder bound (minimum 1).
	K int
	// Shards > 1 enumerates on that many concurrent workers over
	// disjoint assumption cubes; the solution set is shard-count
	// invariant. SampleCap bounds the sequential sample stage.
	Shards    int
	SampleCap int
	// Candidates restricts corrections to these gate labels by
	// assumptions (nil = all internal gates).
	Candidates []int
	// Budgets; zero values mean unlimited.
	MaxSolutions int
	MaxConflicts int64
	Timeout      time.Duration
}

// WarmReport is the outcome of a warm or incremental run. Solutions are
// canonical (size, then lexicographic) — for complete runs, byte-
// identical to the monolithic core.Diagnose solution list for the same
// circuit and active test-set.
type WarmReport struct {
	Solutions [][]int
	Complete  bool

	Copies    int // active test copies this run diagnosed
	NewCopies int // copies encoded by this run (0 = fully warm replay)
	Vars      int
	Clauses   int
	Stats     sat.Stats // solver work of this run only
	PerShard  []cnf.ShardStats
	Encode    time.Duration // time spent encoding missing copies
	Rebuilt   bool          // the session was rebuilt for a wider ladder

	// Events is this run's slice of the session's flight recorder:
	// the solver control-flow events (restarts, clause-DB reductions,
	// models, budget exits, …) recorded between the run's start and end
	// cursors. Shard workers share the parent's recorder, so a sharded
	// run's events interleave every worker on one timeline.
	Events []trace.Event
}

// NewWarmSession builds the long-lived session a pool entry keeps warm:
// guard-per-test copies (so any test subset activates by assumptions)
// over all internal candidate gates (so any candidate restriction is an
// assumption too).
func NewWarmSession(c *circuit.Circuit, maxK int) *cnf.DiagSession {
	if maxK < 1 {
		maxK = 1
	}
	return cnf.NewSession(c, cnf.DiagOptions{
		MaxK:       maxK,
		GuardTests: true,
		// Warm sessions always carry a flight recorder: the ring is a
		// few KiB per session and recording happens only at rare solver
		// control-flow points, so the capability costs nothing when no
		// one is looking and is already armed when a request degrades.
		Recorder: trace.NewRecorder(0),
	})
}

// Diagnose runs one warm diagnosis on the pooled session: missing test
// copies are encoded incrementally, the request's test-set is activated
// by assumptions, and one (possibly sharded) enumeration round runs and
// retires. The session afterwards carries the request's tests as its
// current active set, the base the incremental endpoint edits.
//
// If spec.K exceeds the warm ladder's width the session is rebuilt in
// place with the wider ladder (counted in the pool's Rebuilds); the
// request then proceeds on the fresh session.
func (e *PoolEntry) Diagnose(ctx context.Context, tests circuit.TestSet, spec RunSpec) (*WarmReport, error) {
	if spec.K < 1 {
		spec.K = 1
	}
	if len(tests) == 0 {
		return nil, fmt.Errorf("service: warm diagnosis requires a non-empty test-set")
	}
	var rep *WarmReport
	span := trace.FromContext(ctx)
	err := e.Run(func(sess *cnf.DiagSession, circ *circuit.Circuit) error {
		// The fn runs once runMu is held, so "session-wait" is the time
		// this request queued behind other requests on the same session.
		span.Lap("session-wait")
		rebuilt := false
		if !sess.CanBound(spec.K) {
			e.rebuild(NewWarmSession(circ, spec.K), spec.K)
			sess = e.sess
			rebuilt = true
			span.Lap("rebuild")
		}
		active, encoded, encode := e.ensureTests(tests)
		e.activate(active, spec)
		span.Lap("encode")
		r, err := diagnoseActive(ctx, sess, active, spec)
		if err != nil {
			return err
		}
		span.Lap("solve")
		r.NewCopies = encoded
		r.Encode = encode
		r.Rebuilt = rebuilt
		rep = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Incremental edits the session's current test-set — retract the listed
// positions, append the added tests — and re-diagnoses the result. The
// zero-valued fields of spec default to the previous run's knobs, so a
// client can send only the edit.
func (e *PoolEntry) Incremental(ctx context.Context, add circuit.TestSet, remove []int, spec RunSpec) (*WarmReport, circuit.TestSet, error) {
	var rep *WarmReport
	var activeTests circuit.TestSet
	span := trace.FromContext(ctx)
	err := e.Run(func(sess *cnf.DiagSession, circ *circuit.Circuit) error {
		span.Lap("session-wait")
		merged := e.lastSpec
		if spec.K > 0 {
			merged.K = spec.K
		}
		if merged.K < 1 {
			merged.K = 1
		}
		if spec.Shards > 0 {
			merged.Shards = spec.Shards
		}
		if spec.SampleCap > 0 {
			merged.SampleCap = spec.SampleCap
		}
		if spec.Candidates != nil {
			merged.Candidates = spec.Candidates
		}
		if spec.MaxSolutions > 0 {
			merged.MaxSolutions = spec.MaxSolutions
		}
		if spec.MaxConflicts > 0 {
			merged.MaxConflicts = spec.MaxConflicts
		}
		if spec.Timeout > 0 {
			merged.Timeout = spec.Timeout
		}
		if !sess.CanBound(merged.K) {
			return fmt.Errorf("service: incremental k=%d exceeds the session ladder (max %d); send a fresh /diagnose", merged.K, e.maxK)
		}

		// Retract: drop the listed positions of the current list. The
		// copies stay encoded (retraction is pure assumption scoping);
		// re-adding such a test later is free.
		drop := make(map[int]bool, len(remove))
		for _, i := range remove {
			if i < 0 || i >= len(e.current) {
				return fmt.Errorf("service: retract index %d out of range (current test-set has %d tests)", i, len(e.current))
			}
			drop[i] = true
		}
		next := make([]int, 0, len(e.current)+len(add))
		for i, ci := range e.current {
			if !drop[i] {
				next = append(next, ci)
			}
		}
		addIdx, encoded, encode := e.ensureTests(add)
		next = append(next, addIdx...)
		if len(next) == 0 {
			return fmt.Errorf("service: edit leaves an empty test-set")
		}
		e.activate(next, merged)
		span.Lap("encode")
		r, err := diagnoseActive(ctx, sess, next, merged)
		if err != nil {
			return err
		}
		span.Lap("solve")
		r.NewCopies = encoded
		r.Encode = encode
		rep = r
		for _, ci := range next {
			activeTests = append(activeTests, sess.Tests[ci])
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rep, activeTests, nil
}

// Prime restores a replayed session's serving state without running a
// diagnosis: the journaled live test-set is encoded (repopulating the
// dedup index so re-sent tests reuse their copies) and installed as the
// current active set, and k restores the incremental endpoint's default
// ladder bound. The next request then behaves exactly like a warm
// request on the pre-crash session.
func (e *PoolEntry) Prime(tests circuit.TestSet, k int) error {
	if k < 1 {
		k = 1
	}
	return e.Run(func(*cnf.DiagSession, *circuit.Circuit) error {
		active, _, _ := e.ensureTests(tests)
		e.activate(active, RunSpec{K: k})
		return nil
	})
}

// ensureTests encodes any test not yet present and returns the copy
// indices of all of them, in request order.
func (e *PoolEntry) ensureTests(tests circuit.TestSet) (active []int, encoded int, encode time.Duration) {
	start := time.Now()
	active = make([]int, len(tests))
	for i, t := range tests {
		k := testKey(t)
		idx, ok := e.testIndex[k]
		if !ok {
			idx = e.sess.AddTest(t)
			e.testIndex[k] = idx
			encoded++
		}
		active[i] = idx
	}
	if encoded > 0 {
		encode = time.Since(start)
	}
	return active, encoded, encode
}

// diagnoseActive runs one (possibly sharded) enumeration round over the
// given active copies. The projected solution space of a guard-activated,
// assumption-restricted round is identical to a monolithic instance
// built for exactly that test-set and candidate list (see the session
// property tests), which is what makes warm responses byte-identical to
// cold core.Diagnose ones.
func diagnoseActive(ctx context.Context, sess *cnf.DiagSession, active []int, spec RunSpec) (*WarmReport, error) {
	rep := &WarmReport{Copies: len(active)}
	round := cnf.RoundOptions{
		MaxK:         spec.K,
		Ctx:          ctx,
		ActiveTests:  active,
		Restrict:     spec.Candidates,
		MaxSolutions: spec.MaxSolutions,
		MaxConflicts: spec.MaxConflicts,
		Timeout:      spec.Timeout,
		SampleCap:    spec.SampleCap,
	}
	// This run's flight-recorder window: everything the (shared) ring
	// receives between these cursors belongs to this request. Nil-safe:
	// a recorder-less session yields cursor 0 and a nil event slice.
	rec := sess.Solver.FlightRecorder()
	cursor := rec.Cursor()
	before := sess.Solver.Stats
	sols, complete, perShard, err := sess.EnumerateSharded(spec.Shards, round)
	if err != nil {
		return nil, err
	}
	rep.Solutions = sols
	rep.Complete = complete
	// The live solver's work of this run plus the worker clones'.
	rep.Stats = sess.Solver.Stats.Sub(before)
	for _, st := range perShard[1:] {
		rep.Stats = rep.Stats.Add(st.Stats)
	}
	if spec.Shards > 1 {
		rep.PerShard = perShard
	}
	rep.Events = rec.Since(cursor)
	rep.Vars, rep.Clauses = sess.Size()
	if rep.Solutions == nil {
		rep.Solutions = [][]int{}
	}
	return rep, nil
}
