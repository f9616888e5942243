package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/sat"
	"repro/internal/trace"
)

// Request is the unified diagnosis request served by Diagnose: one
// struct naming the engine and carrying the inputs every procedure
// shares — the faulty circuit, the failing test-set, the correction
// size ladder, the shard count, budgets — plus the per-family extras.
// Fields an engine does not use are ignored (e.g. Shards for bsim/cov,
// PT for bsat/cegar).
type Request struct {
	// Engine names the procedure: "bsim", "cov", "bsat", "cegar" or
	// "hybrid". "" means "bsat".
	Engine string

	// Circuit is the faulty implementation; Tests the failing triples
	// (Definition 1). Both are required.
	Circuit *circuit.Circuit
	Tests   circuit.TestSet

	// K is the correction-size ladder bound (limits 1..K); minimum and
	// default 1. Ignored by bsim.
	K int

	// Shards > 1 runs the SAT enumeration (bsat/cegar/hybrid) on that
	// many disjoint candidate shards concurrently; the solution set and
	// its canonical order are shard-count invariant. ShardSample bounds
	// the sequential sample stage that warms the solver and plans the
	// balanced cubes (0 = default).
	Shards      int
	ShardSample int

	// Budgets; zero values mean unlimited.
	MaxSolutions int
	MaxConflicts int64
	Timeout      time.Duration

	// SAT-engine extras (ignored by bsim/cov).
	Candidates []int

	// PT configures the path-tracing stage of bsim, cov and hybrid.
	PT PTOptions
}

// Report is the unified diagnosis response: the canonical solution set
// plus everything the engines know about how it was obtained. Fields an
// engine cannot fill stay zero (e.g. Vars for bsim, Copies for cov).
type Report struct {
	// Engine echoes the resolved engine name.
	Engine string

	// SolutionSet holds the corrections in canonical order (by size,
	// then lexicographically) regardless of engine, worker or shard
	// count; Complete reports whether enumeration exhausted the space
	// within the budgets (cancellation surfaces here too).
	SolutionSet

	// Guaranteed reports whether every solution is a valid correction
	// containing only essential candidates (Lemmas 1 and 3) — true for
	// the SAT engines, false for bsim/cov (Lemma 2).
	Guaranteed bool

	// Timings are the Table 2 columns (instance construction, first
	// solution, exhaustion). Vars/Clauses/Copies size the SAT instance;
	// Stats counts solver work; Refinements counts CEGAR refinement
	// steps and Checked the candidates its simulation oracle validated.
	// PerShard carries the per-shard breakdown of sharded runs.
	Timings     Timings
	Vars        int
	Clauses     int
	Copies      int
	Refinements int
	Checked     int
	Stats       sat.Stats
	PerShard    []cnf.ShardStats

	// Elapsed is the end-to-end wall time inside Diagnose.
	Elapsed time.Duration
}

// engineFunc is one diagnosis procedure of the engine table. It must
// return the solutions in canonical order (SolutionSet.Canonicalize) and
// respect ctx cancellation by reporting an incomplete result promptly.
// Engines whose stages are non-interruptible (bsim's millisecond-scale
// path tracing) must at least check ctx between stages and on entry.
type engineFunc func(ctx context.Context, req Request) (*Report, error)

// engines is the fixed table of diagnosis procedures Diagnose serves.
var engines = map[string]engineFunc{
	"bsim":   runBSIM,
	"cov":    runCOV,
	"bsat":   runBSAT,
	"cegar":  runCEGAR,
	"hybrid": runHybrid,
}

// EngineNames lists the engines Diagnose serves, sorted.
func EngineNames() []string {
	names := make([]string, 0, len(engines))
	for name := range engines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Diagnose runs the requested engine and returns its unified report.
// It is the single entry point over the five per-procedure functions
// (BSIM, COV, BSAT, CEGARDiagnose, HybridBSAT): same request shape,
// same report shape, same cancellation and sharding semantics. A nil
// ctx is treated as context.Background().
func Diagnose(ctx context.Context, req Request) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Circuit == nil {
		return nil, fmt.Errorf("core: Diagnose requires a circuit")
	}
	if len(req.Tests) == 0 {
		return nil, fmt.Errorf("core: Diagnose requires a non-empty test-set")
	}
	name := req.Engine
	if name == "" {
		name = "bsat"
	}
	fn := engines[name]
	if fn == nil {
		return nil, fmt.Errorf("core: unknown engine %q (registered: %v)", name, EngineNames())
	}
	// A traced request groups the engine's whole execution (session
	// build, rounds, cubes) under one "engine:<name>" child span.
	if span := trace.FromContext(ctx).Child("engine:" + name); span != nil {
		ctx = trace.NewContext(ctx, span)
		defer span.End()
	}
	start := time.Now()
	rep, err := fn(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("core: engine %s: %w", name, err)
	}
	rep.Engine = name
	rep.Elapsed = time.Since(start)
	return rep, nil
}

func (req Request) k() int {
	if req.K < 1 {
		return 1
	}
	return req.K
}

// bsatOptions translates the request into the option struct the SAT
// drivers share, threading ctx through.
func (req Request) bsatOptions(ctx context.Context) BSATOptions {
	return BSATOptions{
		K:            req.k(),
		Candidates:   req.Candidates,
		MaxSolutions: req.MaxSolutions,
		MaxConflicts: req.MaxConflicts,
		Timeout:      req.Timeout,
		Shards:       req.Shards,
		ShardSample:  req.ShardSample,
		Ctx:          ctx,
	}
}

func bsatReport(res *BSATResult, copies int) *Report {
	return &Report{
		SolutionSet: res.SolutionSet,
		Guaranteed:  true,
		Timings:     res.Timings,
		Vars:        res.Vars,
		Clauses:     res.Clauses,
		Copies:      copies,
		Stats:       res.Stats,
		PerShard:    res.PerShard,
	}
}

func runBSIM(ctx context.Context, req Request) (*Report, error) {
	// Path tracing runs in milliseconds and has no interruption
	// point; honor an already-cancelled context up front.
	if ctx.Err() != nil {
		return &Report{}, nil
	}
	res := BSIM(req.Circuit, req.Tests, req.PT)
	rep := &Report{Timings: Timings{All: res.Elapsed}}
	// BSIM yields candidate regions, not corrections: report each
	// per-test candidate set Ci as one (unguaranteed) entry.
	rep.Solutions = make([]Correction, len(res.Sets))
	for i, ci := range res.Sets {
		rep.Solutions[i] = NewCorrection(ci)
	}
	rep.Complete = true
	rep.Canonicalize()
	return rep, nil
}

func runCOV(ctx context.Context, req Request) (*Report, error) {
	// The BSIM stage has no interruption point; honor an
	// already-cancelled context before it (the covering enumeration
	// itself polls ctx). The covering layer has no native wall-clock
	// budget, so Request.Timeout is enforced through the context.
	if ctx.Err() != nil {
		return &Report{}, nil
	}
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}
	res, err := COV(req.Circuit, req.Tests, CovOptions{
		K:            req.k(),
		PT:           req.PT,
		MaxSolutions: req.MaxSolutions,
		MaxConflicts: req.MaxConflicts,
		Ctx:          ctx,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{SolutionSet: res.SolutionSet, Timings: res.Timings}
	rep.Canonicalize()
	return rep, nil
}

func runBSAT(ctx context.Context, req Request) (*Report, error) {
	res, err := BSAT(req.Circuit, req.Tests, req.bsatOptions(ctx))
	if err != nil {
		return nil, err
	}
	return bsatReport(res, len(req.Tests)), nil
}

func runCEGAR(ctx context.Context, req Request) (*Report, error) {
	res, err := CEGARDiagnose(req.Circuit, req.Tests, req.bsatOptions(ctx))
	if err != nil {
		return nil, err
	}
	rep := bsatReport(&res.BSATResult, res.Copies)
	rep.Refinements = res.Refinements
	rep.Checked = res.Checked
	return rep, nil
}

func runHybrid(ctx context.Context, req Request) (*Report, error) {
	res, _, err := HybridBSAT(req.Circuit, req.Tests, req.bsatOptions(ctx), req.PT)
	if err != nil {
		return nil, err
	}
	return bsatReport(res, len(req.Tests)), nil
}
