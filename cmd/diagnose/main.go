// Command diagnose runs the paper's diagnosis engines on a circuit.
//
// Typical session — inject two errors into a synthetic benchmark and
// compare all three engines:
//
//	diagnose -circuit s1423x -inject 2 -seed 7 -tests 16 -method all
//
// Diagnosing an explicit faulty implementation against a golden netlist:
//
//	diagnose -golden spec.bench -faulty impl.bench -tests 8 -method bsat -k 2
//
// With -trace, the SAT run also prints its span breakdown: encoding
// against enumeration, each enumeration round's time per limit k with
// its solver counters, or cegar's laps.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	diagnosis "repro"
	"repro/internal/trace"
)

func main() {
	var (
		circuitName = flag.String("circuit", "", "synthetic suite circuit to diagnose (see -list)")
		goldenPath  = flag.String("golden", "", "golden .bench netlist (with -faulty)")
		faultyPath  = flag.String("faulty", "", "faulty .bench netlist (with -golden)")
		listNames   = flag.Bool("list", false, "list synthetic suite circuits and exit")
		inject      = flag.Int("inject", 1, "number of errors to inject (with -circuit)")
		seed        = flag.Int64("seed", 1, "injection/test-generation seed")
		model       = flag.String("model", "kind", "error model: kind, invert, function")
		numTests    = flag.Int("tests", 8, "number of tests m")
		k           = flag.Int("k", 0, "correction size limit (default: number of injected errors)")
		method      = flag.String("method", "all", "bsim, cov, bsat, hybrid, or all")
		engine      = flag.String("engine", "mono", "SAT engine: mono (one copy per test) or cegar (hitting sets of per-test cores, identical solutions)")
		shards      = flag.Int("shards", 1, "parallel enumeration shards for the SAT engines (complete runs return identical solutions for any count)")
		maxSol      = flag.Int("max-solutions", 5000, "solution cap per engine (0 = unlimited)")
		timeout     = flag.Duration("timeout", 2*time.Minute, "BSAT enumeration timeout (0 = unlimited)")
		verbose     = flag.Bool("v", false, "print individual solutions")
		traced      = flag.Bool("trace", false, "print the SAT run's span breakdown (encode/enumerate, rounds per k, cegar laps)")
	)
	flag.Parse()

	if *listNames {
		for _, n := range diagnosis.BenchmarkNames() {
			fmt.Println(n)
		}
		return
	}
	if err := run(*circuitName, *goldenPath, *faultyPath, *inject, *seed, *model,
		*numTests, *k, *method, *engine, *shards, *maxSol, *timeout, *verbose, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "diagnose:", err)
		os.Exit(1)
	}
}

func run(circuitName, goldenPath, faultyPath string, inject int, seed int64, model string,
	numTests, k int, method, engine string, shards, maxSol int, timeout time.Duration, verbose, traced bool) error {

	var (
		golden, faulty *diagnosis.Circuit
		sites          []int
		err            error
	)
	switch {
	case circuitName != "":
		golden, err = diagnosis.GenerateCircuit(circuitName)
		if err != nil {
			return err
		}
		var m diagnosis.InjectOptions
		m.Count = inject
		m.Seed = seed
		switch model {
		case "kind":
			m.Model = diagnosis.KindChange
		case "invert":
			m.Model = diagnosis.OutputInversion
		case "function":
			m.Model = diagnosis.FunctionChange
		default:
			return fmt.Errorf("unknown error model %q", model)
		}
		var fs *diagnosis.FaultSet
		faulty, fs, err = diagnosis.Inject(golden, m)
		if err != nil {
			return err
		}
		sites = fs.Sites()
		fmt.Printf("circuit: %v\ninjected: %v\n", golden, fs)
	case goldenPath != "" && faultyPath != "":
		golden, err = diagnosis.LoadBench(goldenPath)
		if err != nil {
			return err
		}
		faulty, err = diagnosis.LoadBench(faultyPath)
		if err != nil {
			return err
		}
		fmt.Printf("golden: %v\nfaulty: %v\n", golden, faulty)
	default:
		return fmt.Errorf("need -circuit, or -golden and -faulty (try -list)")
	}

	tests, err := diagnosis.MakeTests(golden, faulty, diagnosis.TestGenOptions{Count: numTests, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("tests: %d failing triples over %d erroneous outputs\n", len(tests), len(tests.Outputs()))
	if k <= 0 {
		k = inject
		if k <= 0 {
			k = 1
		}
	}

	want := strings.ToLower(method)
	do := func(name string) bool { return want == "all" || want == name }

	if engine != "" && engine != "mono" && engine != "cegar" {
		return fmt.Errorf("unknown engine %q (want mono or cegar)", engine)
	}
	if engine == "cegar" && want == "hybrid" {
		return fmt.Errorf("-engine cegar does not combine with -method hybrid (steering is a mono-BSAT feature); use -method bsat")
	}

	if do("bsim") {
		res := diagnosis.DiagnoseBSIM(faulty, tests, diagnosis.PTOptions{})
		fmt.Printf("\n[BSIM] %v: |union(Ci)| = %d, Gmax = %d gates\n",
			res.Elapsed, len(res.Union()), len(res.MaxMarked()))
		if sites != nil {
			q := diagnosis.MeasureBSIM(faulty, res, sites)
			fmt.Printf("[BSIM] avg distance of marks to real errors: %.2f (Gmax: min %d, avg %.2f)\n",
				q.AvgAll, q.GminDist, q.GavgDist)
		}
	}
	if do("cov") {
		res, err := diagnosis.DiagnoseCOV(faulty, tests, diagnosis.CovOptions{K: k, MaxSolutions: maxSol})
		if err != nil {
			return err
		}
		fmt.Printf("\n[COV]  cnf %v, one %v, all %v: %d solutions (complete=%v) — validity NOT guaranteed\n",
			res.Timings.CNF, res.Timings.One, res.Timings.All, len(res.Solutions), res.Complete)
		printSolutions(faulty, res.Solutions, sites, verbose)
	}
	if do("bsat") || do("hybrid") {
		// SAT-family methods run through the unified engine table.
		req := diagnosis.Request{
			Circuit:      faulty,
			Tests:        tests,
			K:            k,
			Shards:       shards,
			MaxSolutions: maxSol,
			Timeout:      timeout,
		}
		switch {
		case engine == "cegar":
			req.Engine = "cegar"
		case do("hybrid") && want != "all":
			req.Engine = "hybrid"
		default:
			req.Engine = "bsat"
		}
		ctx := context.Background()
		var span *trace.Span
		if traced {
			span = trace.New("diagnose")
			ctx = trace.NewContext(ctx, span)
		}
		rep, err := diagnosis.Diagnose(ctx, req)
		if err != nil {
			return err
		}
		span.End()
		if req.Engine == "cegar" {
			fmt.Printf("\n[BSAT] cegar: %d/%d test copies encoded (%d cores, %d candidates checked)\n",
				rep.Copies, len(tests), rep.Refinements, rep.Checked)
		}
		fmt.Printf("\n[BSAT] %s: cnf %v (%d vars, %d clauses), one %v, all %v: %d valid corrections (complete=%v)\n",
			rep.Engine, rep.Timings.CNF, rep.Vars, rep.Clauses, rep.Timings.One, rep.Timings.All,
			len(rep.Solutions), rep.Complete)
		fmt.Printf("[BSAT] solver: %d decisions, %d conflicts, %d propagations\n",
			rep.Stats.Decisions, rep.Stats.Conflicts, rep.Stats.Propagations)
		for _, st := range rep.PerShard {
			fmt.Printf("[BSAT]   shard %d: %d solutions in %v (complete=%v, %d conflicts)\n",
				st.Shard, st.Solutions, st.Elapsed, st.Complete, st.Stats.Conflicts)
		}
		if span != nil {
			printSpan(os.Stdout, span.Breakdown(), 0)
		}
		printSolutions(faulty, rep.Solutions, sites, verbose)
	}
	return nil
}

// printSpan writes a span tree one span per line, indented by depth:
// its wall time, then its phases in the order they were recorded, then
// its counters by name.
func printSpan(w io.Writer, sp *trace.SpanJSON, depth int) {
	var b strings.Builder
	fmt.Fprintf(&b, "[trace] %s%s %.3f ms", strings.Repeat("  ", depth), sp.Name, sp.DurationMS)
	if sp.Detail != "" {
		fmt.Fprintf(&b, " (%s)", sp.Detail)
	}
	for i, p := range sp.Phases {
		sep := ", "
		if i == 0 {
			sep = ": "
		}
		fmt.Fprintf(&b, "%s%s %.3f ms", sep, p.Name, p.DurationMS)
	}
	names := make([]string, 0, len(sp.Counters))
	for name := range sp.Counters {
		names = append(names, name)
	}
	slices.Sort(names)
	for i, name := range names {
		sep := " "
		if i == 0 {
			sep = " | "
		}
		fmt.Fprintf(&b, "%s%s=%d", sep, name, sp.Counters[name])
	}
	fmt.Fprintln(w, b.String())
	for _, c := range sp.Children {
		printSpan(w, c, depth+1)
	}
}

func printSolutions(c *diagnosis.Circuit, sols []diagnosis.Correction, sites []int, verbose bool) {
	limit := len(sols)
	if !verbose && limit > 10 {
		limit = 10
	}
	siteSet := make(map[int]bool)
	for _, s := range sites {
		siteSet[s] = true
	}
	for i := 0; i < limit; i++ {
		names := make([]string, len(sols[i].Gates))
		hit := ""
		for j, g := range sols[i].Gates {
			names[j] = c.Gates[g].Name
			if siteSet[g] {
				hit = "  <-- contains real error site"
			}
		}
		fmt.Printf("  %3d. {%s}%s\n", i+1, strings.Join(names, ", "), hit)
	}
	if limit < len(sols) {
		fmt.Printf("  ... %d more (use -v)\n", len(sols)-limit)
	}
}
