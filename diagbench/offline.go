package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/service"
	"repro/internal/trace"
)

// cell is one Table 2 scenario: a suite circuit with p injected errors
// (seeded) and the first m tests of its generated test-set.
type cell struct {
	circuit string
	p       int
	seed    int64
	m       int
}

func (c cell) String() string { return fmt.Sprintf("%s-p%d-m%d-seed%d", c.circuit, c.p, c.m, c.seed) }

// job is one diagnosis of an offline workload's fixed job list, run
// through core.Diagnose with default solver configuration and enum mode.
type job struct {
	name         string
	cell         cell
	engine       string
	k            int
	shards       int
	maxSolutions int  // 0 = exhaustive
	ref          bool // the Table 2 reference cell, reported as sat.ref_*
}

func (j job) sat() bool { return j.engine == "bsat" || j.engine == "cegar" }

// seedStride separates the cells of different workload seeds; workload
// seed 0 keeps the base seeds, which reproduce the documented cells.
const seedStride = 100003

func offlineJobs(workload, size string) []job {
	var jobs []job
	engines := func(c cell, k int, names ...string) {
		for _, e := range names {
			jobs = append(jobs, job{name: fmt.Sprintf("%s-p%d-m%d-k%d-%s", c.circuit, c.p, c.m, k, e), cell: c, engine: e, k: k})
		}
	}
	switch {
	case workload == "table2-enum" && size == "full":
		t2 := cell{"s1423x", 4, 1, 16}
		jobs = []job{
			{name: "s1423x-p4-m16-k3-bsat", cell: t2, engine: "bsat", k: 3, ref: true},
			{name: "s1423x-p4-m16-k3-bsat-shards2", cell: t2, engine: "bsat", k: 3, shards: 2},
			{name: "s526x-p2-m16-k3-bsat", cell: cell{"s526x", 2, 3, 16}, engine: "bsat", k: 3},
			{name: "s1423x-p2-m8-k3-cegar", cell: cell{"s1423x", 2, 5, 8}, engine: "cegar", k: 3},
		}
	case workload == "table2-enum":
		t2 := cell{"s298x", 2, 1, 8}
		jobs = []job{
			{name: "s298x-p2-m8-k2-bsat", cell: t2, engine: "bsat", k: 2, ref: true},
			{name: "s298x-p2-m8-k2-bsat-shards2", cell: t2, engine: "bsat", k: 2, shards: 2},
			{name: "s400x-p2-m8-k2-cegar", cell: cell{"s400x", 2, 3, 8}, engine: "cegar", k: 2},
		}
	case size == "full":
		engines(cell{"s6669x", 1, 2, 16}, 1, "bsim", "cov", "bsat", "cegar")
		engines(cell{"s38417x", 1, 3, 8}, 1, "bsim", "cov", "bsat", "cegar")
		engines(cell{"s6669x", 3, 2, 32}, 3, "bsim")
		jobs = append(jobs, job{name: "s6669x-p3-m32-k3-cov-cap1000", cell: cell{"s6669x", 3, 2, 32},
			engine: "cov", k: 3, maxSolutions: 1000})
	default:
		engines(cell{"s526x", 1, 2, 8}, 1, "bsim", "cov", "bsat", "cegar")
		engines(cell{"s838x", 2, 2, 8}, 2, "bsim")
		jobs = append(jobs, job{name: "s838x-p2-m8-k2-cov-cap20", cell: cell{"s838x", 2, 2, 8},
			engine: "cov", k: 2, maxSolutions: 20})
	}
	return jobs
}

// scenario is a prepared cell: the faulty circuit, its test prefix and
// its .bench rendering (the circuit layer's parse input).
type scenario struct {
	circ  *circuit.Circuit
	tests circuit.TestSet
	bench string
}

// prepareCells generates every distinct cell of the job list and runs one
// bsim diagnosis on each as warm-up.
func prepareCells(jobs []job, workloadSeed int64) (map[cell]*scenario, error) {
	out := map[cell]*scenario{}
	for _, j := range jobs {
		if out[j.cell] != nil {
			continue
		}
		c := j.cell
		sc, err := expt.Prepare(expt.Config{Circuit: c.circuit, P: c.p, Seed: c.seed + workloadSeed*seedStride})
		if err != nil {
			return nil, fmt.Errorf("prepare %v: %w", c, err)
		}
		var sb strings.Builder
		if err := circuit.WriteBench(&sb, sc.Faulty); err != nil {
			return nil, fmt.Errorf("render %v: %w", c, err)
		}
		s := &scenario{circ: sc.Faulty, tests: sc.Tests.Prefix(c.m), bench: sb.String()}
		if _, err := core.Diagnose(context.Background(), core.Request{Engine: "bsim", Circuit: s.circ, Tests: s.tests}); err != nil {
			return nil, fmt.Errorf("warm-up %v: %w", c, err)
		}
		out[c] = s
	}
	return out, nil
}

// refEngine names the engine of a job's reference: a cold monolithic
// bsat for the SAT engines, the job's own engine otherwise.
func refEngine(j job) string {
	if j.sat() {
		return "bsat"
	}
	return j.engine
}

func refKey(j job, workloadSeed int64) string {
	return fmt.Sprintf("offline/%v/w%d/%s/k%d/cap%d", j.cell, workloadSeed, refEngine(j), j.k, j.maxSolutions)
}

func computeReferences(jobs []job, cells map[cell]*scenario, workloadSeed int64, cache *refCache) (map[string]reference, error) {
	refs := map[string]reference{}
	for _, j := range jobs {
		sc := cells[j.cell]
		ref, err := cache.get(refKey(j, workloadSeed), func() (reference, error) {
			rep, err := core.Diagnose(context.Background(), core.Request{
				Engine: refEngine(j), Circuit: sc.circ, Tests: sc.tests, K: j.k, MaxSolutions: j.maxSolutions,
			})
			if err != nil {
				return reference{}, fmt.Errorf("reference for %s: %w", j.name, err)
			}
			return reference{Key: solutionsKey(gatesOf(rep.Solutions)), Complete: rep.Complete}, nil
		})
		if err != nil {
			return nil, err
		}
		refs[refKey(j, workloadSeed)] = ref
	}
	return refs, cache.save()
}

func gatesOf(sols []core.Correction) [][]int {
	out := make([][]int, len(sols))
	for i, s := range sols {
		out[i] = s.Gates
	}
	return out
}

// jobRun is one timed diagnosis.
type jobRun struct {
	job  job
	rep  *core.Report
	err  error
	wall time.Duration
}

type offlineBench struct {
	cfg   config
	jobs  []job
	cells map[cell]*scenario
	refs  map[string]reference
	gate  gate
	log   io.Writer

	passes int
	// Time spent re-validating corrections, and how many were validated,
	// during the latest checked pass.
	validate    time.Duration
	corrections int
}

func runOffline(cfg config, log io.Writer) (map[string]float64, gate, error) {
	b := &offlineBench{cfg: cfg, jobs: offlineJobs(cfg.workload, cfg.size), log: log}

	// Set-up: scenario generation, bench rendering and warm-up.
	var setups []float64
	for range offlineSetupReps {
		start := time.Now()
		cells, err := prepareCells(b.jobs, cfg.workloadSeed)
		if err != nil {
			return nil, gate{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
		b.cells = cells
	}
	start := time.Now()
	refs, err := computeReferences(b.jobs, b.cells, cfg.workloadSeed, loadRefCache(cfg))
	if err != nil {
		return nil, gate{}, err
	}
	b.refs = refs
	fmt.Fprintf(log, "# setup_s runs=%v reference_s=%.3f jobs=%d\n", setups, time.Since(start).Seconds(), len(b.jobs))

	budget := time.Duration(cfg.seconds * float64(time.Second))
	vals := map[string]float64{"setup_s": median(setups)}
	if !cfg.trace {
		heap := startHeapPeak()
		walls, jobWalls := b.passesFor(budget, false, nil)
		vals["heap_peak_mb"] = heap.Stop()
		// Each job's median over the passes damps a pass disturbed by the
		// box; batch_s is their sum, the time one pass takes.
		var perJob []float64
		for _, xs := range jobWalls {
			perJob = append(perJob, median(xs))
		}
		batch := 0.0
		for _, x := range perJob {
			batch += x / 1e3
		}
		vals["batch_s"] = batch
		vals["req_p50_ms"] = quantile(perJob, 0.5)
		vals["req_p99_ms"] = quantile(perJob, 1)
		vals["req_per_s"] = float64(len(perJob)) / batch
		fmt.Fprintf(log, "# passes=%d pass_s=%v batch_s=%.4f (sum of per-job medians; a request is one diagnosis job, req_p99_ms the slowest job)\n",
			len(walls), walls, batch)
		return vals, b.gate, nil
	}

	untraced, _ := b.passesFor(budget/2, false, nil)
	var layers []map[string]float64
	traced, _ := b.passesFor(budget/2, true, func(runs []jobRun, wall float64) {
		layers = append(layers, b.layerMetrics(runs, wall))
	})
	for _, d := range perLayer {
		var xs []float64
		for _, l := range layers {
			xs = append(xs, l[d.Name])
		}
		vals[d.Name] = median(xs)
	}
	vals["bench.trace_overhead_pct"] = 100 * ratio(median(traced)-median(untraced), median(untraced))
	fmt.Fprintf(log, "# untraced batch_s=%v traced batch_s=%v\n", untraced, traced)
	fmt.Fprintf(log, "# shares of batch_s: sat.enum %.1f%%  cnf.encode %.2f%%  core.cov %.1f%%\n",
		vals["share.sat_enum_pct"], vals["share.cnf_encode_pct"], vals["share.core_cov_pct"])
	return vals, b.gate, nil
}

// How many times each workload sets up in a run; setup_s is the median.
// Offline set-up takes milliseconds, so it repeats more often.
const (
	offlineSetupReps = 7
	serveSetupReps   = 3
)

// passesFor runs whole passes over the job list until the budget is
// spent (at least one), checking every answer after each pass. It
// returns each pass's wall time in seconds and each job's wall times in
// milliseconds; traced passes carry a span and feed onTraced.
func (b *offlineBench) passesFor(budget time.Duration, traced bool, onTraced func([]jobRun, float64)) (walls []float64, jobWalls map[string][]float64) {
	jobWalls = map[string][]float64{}
	start := time.Now()
	var last time.Duration
	for len(walls) == 0 || time.Since(start)+last/2 < budget {
		passStart := time.Now()
		runs := b.pass(traced)
		wall := 0.0
		for _, r := range runs {
			wall += r.wall.Seconds()
			jobWalls[r.job.name] = append(jobWalls[r.job.name], ms(r.wall))
		}
		b.check(runs)
		if traced {
			onTraced(runs, wall)
		}
		walls = append(walls, wall)
		b.printPass(runs, traced)
		last = time.Since(passStart)
	}
	return walls, jobWalls
}

// pass runs every job once, starting at a seed-chosen offset of the list.
func (b *offlineBench) pass(traced bool) []jobRun {
	runtime.GC()
	n := len(b.jobs)
	first := int((b.cfg.seed + int64(b.passes)) % int64(n))
	if first < 0 {
		first += n
	}
	b.passes++
	runs := make([]jobRun, 0, n)
	for i := range n {
		j := b.jobs[(first+i)%n]
		sc := b.cells[j.cell]
		ctx := context.Background()
		var span *trace.Span
		if traced {
			span = trace.New("job")
			span.SetDetail(j.name)
			ctx = trace.NewContext(ctx, span)
		}
		start := time.Now()
		rep, err := core.Diagnose(ctx, core.Request{
			Engine: j.engine, Circuit: sc.circ, Tests: sc.tests, K: j.k, Shards: j.shards, MaxSolutions: j.maxSolutions,
		})
		wall := time.Since(start)
		span.End()
		runs = append(runs, jobRun{job: j, rep: rep, err: err, wall: wall})
	}
	return runs
}

// check is the correctness gate of one pass: each answer must match its
// reference byte for byte, completeness included (only a capped job may
// stop early), and every SAT correction must pass re-validation by
// simulation.
func (b *offlineBench) check(runs []jobRun) {
	b.validate, b.corrections = 0, 0
	for _, r := range runs {
		j := r.job
		if r.err != nil || r.rep == nil {
			b.gate.check(false, "%s: %v", j.name, r.err)
			continue
		}
		sols := gatesOf(r.rep.Solutions)
		if b.cfg.tamper && b.gate.attempted == 0 {
			sols = tamper(sols)
		}
		ref := b.refs[refKey(j, b.cfg.workloadSeed)]
		ok := solutionsKey(sols) == ref.Key && r.rep.Complete == ref.Complete && (r.rep.Complete || j.maxSolutions > 0)
		if j.sat() {
			sc := b.cells[j.cell]
			start := time.Now()
			v := core.NewValidator(sc.circ, sc.tests)
			for _, s := range sols {
				ok = v.Validate(s) && ok
			}
			b.validate += time.Since(start)
			b.corrections += len(sols)
		}
		b.gate.check(ok, "%s: answer differs from its reference (%d solutions, complete=%v)", j.name, len(sols), r.rep.Complete)
	}
}

// tamper corrupts an answer: it loses its last correction, or an empty
// answer gains an empty one.
func tamper(sols [][]int) [][]int {
	if len(sols) == 0 {
		return [][]int{{}}
	}
	return sols[:len(sols)-1]
}

// layerMetrics derives one traced pass's per-layer metrics from the
// reports core.Diagnose returned, plus outside timings of cnf.NewSession,
// circuit.ParseBench and the validator.
func (b *offlineBench) layerMetrics(runs []jobRun, wall float64) map[string]float64 {
	m := map[string]float64{}
	var enumSingle time.Duration
	for _, r := range runs {
		j, rep := r.job, r.rep
		if rep == nil {
			continue
		}
		switch j.engine {
		case "bsim":
			m["core.bsim_ms"] += ms(r.wall)
		case "cov":
			m["core.cov_ms"] += ms(r.wall)
		}
		if !j.sat() {
			continue
		}
		sc := b.cells[j.cell]
		start := time.Now()
		cnf.NewSession(sc.circ, cnf.DiagOptions{MaxK: j.k})
		m["cnf.session_ms"] += ms(time.Since(start))
		m["cnf.encode_ms"] += ms(rep.Timings.CNF)
		m["cnf.vars"] += float64(rep.Vars)
		m["cnf.clauses"] += float64(rep.Clauses)
		m["cnf.copies"] += float64(rep.Copies)
		m["sat.enum_ms"] += ms(rep.Timings.All)
		m["sat.first_model_ms"] += ms(rep.Timings.One)
		if j.engine == "cegar" {
			m["core.cegar_copies"] += float64(rep.Copies)
			m["core.cegar_refinements"] += float64(rep.Refinements)
			m["core.cegar_checked"] += float64(rep.Checked)
		}
		if j.shards > 1 {
			shardMetrics(m, rep.PerShard)
			continue
		}
		// Solver counters of single-threaded jobs only: they repeat
		// exactly from run to run.
		enumSingle += rep.Timings.All
		m["sat.models"] += float64(len(rep.Solutions))
		m["sat.decisions"] += float64(rep.Stats.Decisions)
		m["sat.propagations"] += float64(rep.Stats.Propagations)
		m["sat.conflicts"] += float64(rep.Stats.Conflicts)
		m["sat.early_terms"] += float64(rep.Stats.EarlyTerms)
		if j.ref {
			m["sat.ref_models"] = float64(len(rep.Solutions))
			m["sat.ref_decisions"] = float64(rep.Stats.Decisions)
			m["sat.ref_propagations"] = float64(rep.Stats.Propagations)
		}
	}
	m["sat.us_per_model"] = ratio(float64(enumSingle.Microseconds()), m["sat.models"])
	m["sat.ns_per_propagation"] = ratio(float64(enumSingle.Nanoseconds()), m["sat.propagations"])
	m["core.validate_us_per_correction"] = ratio(float64(b.validate.Nanoseconds())/1e3, float64(b.corrections))
	for c, sc := range b.cells {
		start := time.Now()
		parsed, err := circuit.ParseBench(c.circuit, strings.NewReader(sc.bench))
		if err == nil {
			service.Fingerprint(parsed)
		}
		m["circuit.parse_ms"] += ms(time.Since(start))
	}
	wallMS := wall * 1e3
	m["share.sat_enum_pct"] = 100 * ratio(m["sat.enum_ms"], wallMS)
	m["share.cnf_encode_pct"] = 100 * ratio(m["cnf.encode_ms"], wallMS)
	m["share.core_cov_pct"] = 100 * ratio(m["core.cov_ms"], wallMS)
	return m
}

// shardMetrics adds a sharded run's stage breakdown: the sequential
// sample stage, the critical path (sample + slowest worker), the worker
// skew (slowest / mean) and the fault-tolerance counters.
func shardMetrics(m map[string]float64, stages []cnf.ShardStats) {
	var sample, slowest, sum time.Duration
	workers := 0
	for _, st := range stages {
		m["cnf.shard_retries"] += float64(st.Retries)
		m["cnf.shard_steals"] += float64(st.Steals)
		if st.Shard == -1 {
			sample = st.Elapsed
			continue
		}
		workers++
		sum += st.Elapsed
		slowest = max(slowest, st.Elapsed)
	}
	m["cnf.shard_sample_ms"] += ms(sample)
	m["cnf.shard_critical_ms"] += ms(sample + slowest)
	if workers > 0 {
		m["cnf.shard_skew"] = max(m["cnf.shard_skew"], ratio(float64(slowest), float64(sum)/float64(workers)))
	}
}

func (b *offlineBench) printPass(runs []jobRun, traced bool) {
	fmt.Fprintf(b.log, "# pass %d traced=%v\n", b.passes, traced)
	for _, r := range runs {
		if r.rep == nil {
			fmt.Fprintf(b.log, "#   %-34s error: %v\n", r.job.name, r.err)
			continue
		}
		st := r.rep.Stats
		fmt.Fprintf(b.log, "#   %-34s %9.1f ms  models=%-5d complete=%-5v decisions=%d propagations=%d conflicts=%d\n",
			r.job.name, ms(r.wall), len(r.rep.Solutions), r.rep.Complete, st.Decisions, st.Propagations, st.Conflicts)
	}
}
