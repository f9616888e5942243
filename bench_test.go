package diagnosis_test

// Benchmark harness regenerating the paper's evaluation artifacts:
//
//	BenchmarkTable2_*   — runtime columns of Table 2 (BSIM / COV / BSAT,
//	                      instance construction, one solution, all
//	                      solutions) on the synthetic circuit analogs.
//	BenchmarkTable3_*   — full quality rows of Table 3 (the same runs
//	                      plus the distance statistics).
//	BenchmarkFigure6_*  — the per-point work of the Figure 6 scatters.
//	BenchmarkAblation_* — the advanced options of Sections 2.3/4 and the
//	                      Section 6 hybrid, quantifying each heuristic.
//	BenchmarkSubstrate_* — the underlying engines (simulator, SAT
//	                      solver, path tracing) in isolation.
//
// Budgets (solution caps, timeouts) keep the full sweep laptop-sized;
// cmd/experiments -scale paper runs the uncapped workload. Numbers are
// recorded and compared against the paper in EXPERIMENTS.md.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/metrics"
	"repro/internal/sat"
	"repro/internal/sim"
)

var benchBudget = expt.Budget{MaxSolutions: 1000, MaxConflicts: 0, Timeout: 60 * time.Second}

// table2Workload mirrors the paper's Table 2 rows, trimmed to one small
// and one large m per circuit so the default bench run stays tractable.
var table2Workload = []struct {
	circuit string
	p       int
	seed    int64
	ms      []int
	big     bool // skipped with -short
}{
	{circuit: "s1423x", p: 4, seed: 1, ms: []int{4, 16}},
	{circuit: "s6669x", p: 3, seed: 2, ms: []int{4}, big: true},
	{circuit: "s38417x", p: 2, seed: 3, ms: []int{4}, big: true},
}

var (
	scenarioCache = map[string]*expt.Scenario{}
	scenarioMu    sync.Mutex
)

func scenarioFor(b *testing.B, circuit string, p int, seed int64) *expt.Scenario {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%d", circuit, p, seed)
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if sc, ok := scenarioCache[key]; ok {
		return sc
	}
	sc, err := expt.Prepare(expt.Config{Circuit: circuit, P: p, Seed: seed, Budget: benchBudget})
	if err != nil {
		b.Fatal(err)
	}
	scenarioCache[key] = sc
	return sc
}

func BenchmarkTable2_BSIM(b *testing.B) {
	for _, w := range table2Workload {
		if w.big && testing.Short() {
			continue
		}
		for _, m := range w.ms {
			b.Run(fmt.Sprintf("%s/p%d/m%d", w.circuit, w.p, m), func(b *testing.B) {
				sc := scenarioFor(b, w.circuit, w.p, w.seed)
				tests := sc.Tests.Prefix(m)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.BSIM(sc.Faulty, tests, core.PTOptions{})
				}
			})
		}
	}
}

// BenchmarkTable2_BSIM_FullResim is the "before" side of the
// incremental-engine comparison: the original BasicSimDiagnose loop
// re-simulating the whole circuit once per test. BenchmarkTable2_BSIM
// above measures the batched, event-driven replacement on the same
// workload.
func BenchmarkTable2_BSIM_FullResim(b *testing.B) {
	for _, w := range table2Workload {
		if w.big && testing.Short() {
			continue
		}
		for _, m := range w.ms {
			b.Run(fmt.Sprintf("%s/p%d/m%d", w.circuit, w.p, m), func(b *testing.B) {
				sc := scenarioFor(b, w.circuit, w.p, w.seed)
				tests := sc.Tests.Prefix(m)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.BSIMReference(sc.Faulty, tests, core.PTOptions{})
				}
			})
		}
	}
}

func BenchmarkTable2_COV_All(b *testing.B) {
	for _, w := range table2Workload {
		if w.big && testing.Short() {
			continue
		}
		for _, m := range w.ms {
			b.Run(fmt.Sprintf("%s/p%d/m%d", w.circuit, w.p, m), func(b *testing.B) {
				sc := scenarioFor(b, w.circuit, w.p, w.seed)
				tests := sc.Tests.Prefix(m)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := core.COV(sc.Faulty, tests, core.CovOptions{
						K: w.p, MaxSolutions: benchBudget.MaxSolutions,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(len(res.Solutions)), "solutions")
				}
			})
		}
	}
}

func BenchmarkTable2_BSAT_All(b *testing.B) {
	for _, w := range table2Workload {
		if w.big && testing.Short() {
			continue
		}
		for _, m := range w.ms {
			b.Run(fmt.Sprintf("%s/p%d/m%d", w.circuit, w.p, m), func(b *testing.B) {
				sc := scenarioFor(b, w.circuit, w.p, w.seed)
				tests := sc.Tests.Prefix(m)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := core.BSAT(sc.Faulty, tests, core.BSATOptions{
						K: w.p, MaxSolutions: benchBudget.MaxSolutions, Timeout: benchBudget.Timeout,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(len(res.Solutions)), "solutions")
					b.ReportMetric(res.Timings.CNF.Seconds(), "cnf-s")
					b.ReportMetric(res.Timings.One.Seconds(), "one-s")
				}
			})
		}
	}
}

// BenchmarkTable2_CEGAR_vs_Mono compares the two SAT drivers on the
// Table 2 circuits: the monolithic instance (one constrained copy per
// test up front) against the CEGAR session (seeded with one test per
// erroneous output, grown only by simulation-refuted candidates). Both
// enumerate identical solution sets — the equivalence property suite
// asserts that — so the metrics isolate the cost of the abstraction:
// instance vars/clauses and the number of encoded copies. With m >= 16
// tests the CEGAR run must encode strictly fewer copies (asserted).
func BenchmarkTable2_CEGAR_vs_Mono(b *testing.B) {
	for _, w := range table2Workload {
		if w.big && testing.Short() {
			continue
		}
		for _, m := range []int{4, 16} {
			sc := scenarioFor(b, w.circuit, w.p, w.seed)
			tests := sc.Tests.Prefix(m)
			if len(tests) < m {
				continue // scenario could not expose m distinct failing triples
			}
			opts := core.BSATOptions{K: w.p, MaxSolutions: benchBudget.MaxSolutions, Timeout: benchBudget.Timeout}
			b.Run(fmt.Sprintf("%s/p%d/m%d/mono", w.circuit, w.p, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := core.BSAT(sc.Faulty, tests, opts)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Vars), "vars")
					b.ReportMetric(float64(res.Clauses), "clauses")
					b.ReportMetric(float64(len(tests)), "copies")
					b.ReportMetric(float64(len(res.Solutions)), "solutions")
				}
			})
			// CEGAR seeds one copy per distinct erroneous output; only
			// when that leaves headroom can it encode fewer than m.
			seeds := len(tests.Outputs())
			b.Run(fmt.Sprintf("%s/p%d/m%d/cegar", w.circuit, w.p, m), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := core.CEGARDiagnose(sc.Faulty, tests, opts)
					if err != nil {
						b.Fatal(err)
					}
					if m >= 16 && seeds < m && res.Complete && res.Copies >= len(tests) {
						b.Fatalf("CEGAR encoded %d of %d copies — abstraction did not pay off", res.Copies, len(tests))
					}
					b.ReportMetric(float64(res.Vars), "vars")
					b.ReportMetric(float64(res.Clauses), "clauses")
					b.ReportMetric(float64(res.Copies), "copies")
					b.ReportMetric(float64(res.Refinements), "refinements")
					b.ReportMetric(float64(len(res.Solutions)), "solutions")
				}
			})
		}
	}
}

// BenchmarkTable2_BSAT_ShardScaling is the shard-scaling variant of the
// Table 2 SAT column: the s1423x m=16 exhaustive enumeration (K=3, the
// largest limit that completes within the solution budget) run
// monolithically (shards=1) and as a sample stage plus 2 and 4 workers
// over disjoint assumption cubes on cloned backends
// (cnf.DiagSession.EnumerateSharded). The solution sets are identical
// for every shard count (asserted; the canonical merge restores the
// monolithic set).
//
// Two readings: ns/op is the wall time on THIS machine (worker
// goroutines are GOMAXPROCS-bounded, so a single-core box serializes
// them and ns/op approximates total work); the critical-s metric is
// sample time plus the slowest worker — the wall time a machine with
// >= shards cores achieves. The companion CEGAR sub-benchmarks reduce
// total work outright (per-worker abstractions stay smaller than the
// monolithic one), so their ns/op improves even on one core.
func BenchmarkTable2_BSAT_ShardScaling(b *testing.B) {
	const m, k = 16, 3
	w := table2Workload[0] // s1423x, p=4
	sc := scenarioFor(b, w.circuit, w.p, w.seed)
	tests := sc.Tests.Prefix(m)
	if len(tests) < m {
		b.Skipf("scenario exposes only %d of %d tests", len(tests), m)
	}
	report := func(b *testing.B, sols []core.Correction, complete bool, perShard []cnf.ShardStats, baseline map[string]string, engine string, shards int) {
		if complete {
			keys := make([]string, len(sols))
			for i, s := range sols {
				keys[i] = s.Key()
			}
			all := strings.Join(keys, ";")
			if prev, ok := baseline[engine]; ok && prev != all {
				b.Fatalf("%s shards=%d solution set diverged from baseline", engine, shards)
			}
			baseline[engine] = all
		}
		var sample, maxWorker time.Duration
		for _, st := range perShard {
			if st.Shard == -1 {
				sample = st.Elapsed
			} else if st.Elapsed > maxWorker {
				maxWorker = st.Elapsed
			}
		}
		if shards > 1 {
			b.ReportMetric((sample + maxWorker).Seconds(), "critical-s")
		}
		b.ReportMetric(float64(len(sols)), "solutions")
	}
	baseline := map[string]string{}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%s/p%d/m%d/bsat/shards%d", w.circuit, w.p, m, shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.BSAT(sc.Faulty, tests, core.BSATOptions{
					K:            k,
					Shards:       shards,
					MaxSolutions: benchBudget.MaxSolutions,
					Timeout:      benchBudget.Timeout,
				})
				if err != nil {
					b.Fatal(err)
				}
				report(b, res.Solutions, res.Complete, res.PerShard, baseline, "bsat", shards)
			}
		})
		b.Run(fmt.Sprintf("%s/p%d/m%d/cegar/shards%d", w.circuit, w.p, m, shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.CEGARDiagnose(sc.Faulty, tests, core.BSATOptions{
					K:            k,
					Shards:       shards,
					MaxSolutions: benchBudget.MaxSolutions,
					Timeout:      benchBudget.Timeout,
				})
				if err != nil {
					b.Fatal(err)
				}
				report(b, res.Solutions, res.Complete, res.PerShard, baseline, "cegar", shards)
			}
		})
	}
}

// BenchmarkTable3_Row measures the complete quality row (all three
// engines plus the distance statistics) — the unit of work behind every
// Table 3 line.
func BenchmarkTable3_Row(b *testing.B) {
	for _, w := range table2Workload {
		if w.big && testing.Short() {
			continue
		}
		for _, m := range w.ms {
			b.Run(fmt.Sprintf("%s/p%d/m%d", w.circuit, w.p, m), func(b *testing.B) {
				sc := scenarioFor(b, w.circuit, w.p, w.seed)
				cfg := expt.Config{Circuit: w.circuit, P: w.p, Seed: w.seed, Budget: benchBudget}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					row, err := expt.RunRow(cfg, sc, m)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(row.BSIMQ.UnionSize), "bsim-union")
					b.ReportMetric(float64(row.CovQ.NumSolutions), "cov-sols")
					b.ReportMetric(float64(row.SatQ.NumSolutions), "sat-sols")
				}
			})
		}
	}
}

// BenchmarkFigure6_Point measures the per-point work of the Figure 6
// scatters (COV + BSAT + the two quality measures) on the small suite.
func BenchmarkFigure6_Point(b *testing.B) {
	points := []struct {
		circuit string
		p, m    int
	}{
		{"s298x", 1, 8},
		{"s400x", 2, 8},
		{"s526x", 2, 16},
		{"s838x", 1, 16},
		{"s1196x", 2, 8},
	}
	for _, pt := range points {
		b.Run(fmt.Sprintf("%s/p%d/m%d", pt.circuit, pt.p, pt.m), func(b *testing.B) {
			sc := scenarioFor(b, pt.circuit, pt.p, int64(pt.p)*7919+11)
			tests := sc.Tests.Prefix(pt.m)
			sites := sc.Fs.Sites()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cov, err := core.COV(sc.Faulty, tests, core.CovOptions{K: pt.p, MaxSolutions: benchBudget.MaxSolutions})
				if err != nil {
					b.Fatal(err)
				}
				bsat, err := core.BSAT(sc.Faulty, tests, core.BSATOptions{K: pt.p, MaxSolutions: benchBudget.MaxSolutions})
				if err != nil {
					b.Fatal(err)
				}
				cq := metrics.MeasureSolutions(sc.Faulty, &cov.SolutionSet, sites)
				sq := metrics.MeasureSolutions(sc.Faulty, &bsat.SolutionSet, sites)
				b.ReportMetric(cq.AvgAvg, "cov-avgdist")
				b.ReportMetric(sq.AvgAvg, "sat-avgdist")
				b.ReportMetric(float64(cq.NumSolutions), "cov-sols")
				b.ReportMetric(float64(sq.NumSolutions), "sat-sols")
			}
		})
	}
}

// --- Ablations: the advanced heuristics of Sections 2.3/4 and 6. ---

func ablationScenario(b *testing.B) (*expt.Scenario, int, int) {
	sc := scenarioFor(b, "s1423x", 2, 5)
	return sc, 2, 8 // k, m
}

func BenchmarkAblation_BSAT_Basic(b *testing.B) {
	sc, k, m := ablationScenario(b)
	tests := sc.Tests.Prefix(m)
	for i := 0; i < b.N; i++ {
		if _, err := core.BSAT(sc.Faulty, tests, core.BSATOptions{K: k, MaxSolutions: 500}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_BSAT_Hybrid(b *testing.B) {
	sc, k, m := ablationScenario(b)
	tests := sc.Tests.Prefix(m)
	for i := 0; i < b.N; i++ {
		if _, _, err := core.HybridBSAT(sc.Faulty, tests, core.BSATOptions{K: k, MaxSolutions: 500}, core.PTOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_BSAT_FFRTwoPass(b *testing.B) {
	sc, k, m := ablationScenario(b)
	tests := sc.Tests.Prefix(m)
	for i := 0; i < b.N; i++ {
		if _, _, err := core.FFRTwoPass(sc.Faulty, tests, core.BSATOptions{K: k, MaxSolutions: 500}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_BSAT_Partitioned(b *testing.B) {
	sc, k, m := ablationScenario(b)
	tests := sc.Tests.Prefix(m)
	for i := 0; i < b.N; i++ {
		if _, err := core.PartitionedBSAT(sc.Faulty, tests, 4, core.BSATOptions{K: k, MaxSolutions: 500}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_COV_SATvsBB(b *testing.B) {
	sc, k, m := ablationScenario(b)
	tests := sc.Tests.Prefix(m)
	for _, engine := range []core.CovEngine{core.CovSAT, core.CovBB} {
		b.Run(engine.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.COV(sc.Faulty, tests, core.CovOptions{K: k, Engine: engine, MaxSolutions: 2000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblation_PTPolicies(b *testing.B) {
	sc, _, m := ablationScenario(b)
	tests := sc.Tests.Prefix(m)
	for _, policy := range []core.PTPolicy{core.MarkFirst, core.MarkRandom, core.MarkAll} {
		b.Run(policy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.BSIM(sc.Faulty, tests, core.PTOptions{Policy: policy, Seed: 1})
			}
		})
	}
}

// --- Substrate micro-benchmarks. ---

func BenchmarkSubstrate_Simulator64(b *testing.B) {
	sc := scenarioFor(b, "s1423x", 1, 9)
	s := sim.New(sc.Faulty)
	words := make([]uint64, len(sc.Faulty.Inputs))
	for i := range words {
		words[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(words)
	}
	b.ReportMetric(float64(64*sc.Faulty.NumGates()), "gate-evals/op")
}

// BenchmarkSubstrate_IncrementalSim measures one forced-gate what-if
// query (Force through the fanout cone + O(touched) Undo) against the
// full-circuit RunForced it replaces, on the Table 2 circuits. The
// incremental variant must report 0 allocs/op: the event queues and
// dirty stacks are reused across queries.
func BenchmarkSubstrate_IncrementalSim(b *testing.B) {
	for _, w := range table2Workload {
		if w.big && testing.Short() {
			continue
		}
		sc := scenarioFor(b, w.circuit, w.p, w.seed)
		c := sc.Faulty
		words := make([]uint64, len(c.Inputs))
		for i := range words {
			words[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
		}
		gates := c.InternalGates()
		b.Run(w.circuit+"/incremental", func(b *testing.B) {
			inc := sim.NewIncremental(c)
			inc.SetBaseline(words)
			// Warm up the event queues over every queried gate so the
			// timed region runs in steady state.
			for _, g := range gates {
				inc.Force(g, ^inc.BaselineValue(g))
				inc.Undo()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := gates[i%len(gates)]
				inc.Force(g, ^inc.BaselineValue(g))
				inc.Undo()
			}
		})
		b.Run(w.circuit+"/full-resim", func(b *testing.B) {
			s := sim.New(c)
			s.Run(words)
			forced := make([]sim.Forced, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := gates[i%len(gates)]
				forced[0] = sim.Forced{Gate: g, Value: ^s.Value(g)}
				s.RunForced(words, forced)
			}
		})
	}
}

func BenchmarkSubstrate_PathTrace(b *testing.B) {
	sc := scenarioFor(b, "s1423x", 1, 9)
	s := sim.New(sc.Faulty)
	t := sc.Tests[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PathTrace(s, t, core.PTOptions{})
	}
}

func BenchmarkSubstrate_Validate(b *testing.B) {
	sc := scenarioFor(b, "s1423x", 2, 5)
	tests := sc.Tests.Prefix(8)
	sites := sc.Fs.Sites()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Validate(sc.Faulty, tests, sites)
	}
}

// BenchmarkSolverClone measures Solver.Clone on the s1423x diagnosis
// instance (p=4, m=16 encoded test copies) — the fork every shard worker
// and every warm-session snapshot pays. The session is driven through
// one solve first so the keepLearnts variant clones a realistic learnt
// database, not an empty one.
func BenchmarkSolverClone(b *testing.B) {
	sc := scenarioFor(b, "s1423x", 4, 1)
	tests := sc.Tests.Prefix(16)
	sess := cnf.NewSession(sc.Faulty, cnf.DiagOptions{MaxK: 4})
	sess.AddTests(tests)
	if st := sess.Solver.Solve(sess.AtMost(3)...); st == sat.StatusUnknown {
		b.Fatal("warmup solve hit a budget")
	}
	vars, clauses := sess.Size()
	for _, keep := range []bool{true, false} {
		name := "bare"
		if keep {
			name = "keepLearnts"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c := sess.Solver.Clone(keep); c == nil {
					b.Fatal("nil clone")
				}
			}
			b.ReportMetric(float64(vars), "vars")
			b.ReportMetric(float64(clauses), "clauses")
		})
	}
}

func BenchmarkSubstrate_SATSolver(b *testing.B) {
	// A moderately hard satisfiable instance: graph-coloring-flavoured
	// random CNF built deterministically.
	// Clause/variable ratio 3.6 keeps the fixed instance satisfiable and
	// clearly below the random-3-SAT phase transition (~4.26), so the
	// benchmark measures steady CDCL throughput, not a lottery.
	build := func() *sat.Solver {
		s := sat.New()
		const n = 500
		vars := make([]sat.Var, n)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		state := uint64(0x2545F4914F6CDD1D)
		next := func(mod int) int {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return int(state % uint64(mod))
		}
		for i := 0; i < 36*n/10; i++ {
			a, c, d := vars[next(n)], vars[next(n)], vars[next(n)]
			s.AddClause(sat.MkLit(a, next(2) == 0), sat.MkLit(c, next(2) == 0), sat.MkLit(d, next(2) == 0))
		}
		return s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := build()
		if st := s.Solve(); st == sat.StatusUnknown {
			b.Fatal("budget hit")
		}
	}
}
