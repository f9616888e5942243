// Package expt is the benchmark harness reproducing the paper's
// evaluation (Section 5): Table 2 (runtimes of BSIM, COV and BSAT),
// Table 3 (diagnosis quality) and Figure 6 (quality and solution-count
// scatter of BSAT versus COV over all benchmarks). Circuits come from
// the seeded synthetic ISCAS89-like suite (the internal/gen package doc
// documents the substitution); errors are injected gate changes;
// test-sets are shared prefixes exactly as in the paper ("a part of the
// same test-set has been used").
package expt

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/tgen"
)

// Budget bounds each diagnosis run so the harness completes on a laptop;
// zero values mean unlimited (the paper used 512 MB / 30 min per run).
type Budget struct {
	MaxSolutions int           // cap on enumerated solutions per approach
	MaxConflicts int64         // SAT conflict budget per BSAT solve
	Timeout      time.Duration // wall-clock bound per BSAT enumeration
}

// Engine selects the SAT-diagnosis driver for the BSAT column.
type Engine int

// Engines: EngineMono is the paper's monolithic instance (one copy per
// test up front); EngineCEGAR enumerates the minimal hitting sets of
// per-test cores, encoding a test only when it refutes a candidate
// (identical solutions).
const (
	EngineMono Engine = iota
	EngineCEGAR
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineMono:
		return "mono"
	case EngineCEGAR:
		return "cegar"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine maps a flag value to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "mono":
		return EngineMono, nil
	case "cegar":
		return EngineCEGAR, nil
	default:
		return 0, fmt.Errorf("expt: unknown engine %q (want mono or cegar)", s)
	}
}

// Config describes one experiment row group: a circuit, an error count
// and the test-set sizes to sweep.
type Config struct {
	Circuit string // suite circuit name (gen.Suite)
	P       int    // number of injected errors; k is set to p as in the paper
	Ms      []int  // test counts (default 4, 8, 16, 32)
	Seed    int64  // injection/test-generation seed
	Model   faults.Model
	Budget  Budget
	Engine  Engine // SAT driver for the BSAT column (default EngineMono)
	// Shards > 1 runs the SAT enumeration sharded (identical solutions,
	// concurrent disjoint candidate slices); 0/1 = monolithic.
	Shards int
	// PaperScale generates the full-size circuit analog (only s38417x
	// differs from the default suite; see gen.Suite).
	PaperScale bool
}

// DefaultMs is the paper's test-count sweep.
var DefaultMs = []int{4, 8, 16, 32}

// Row is one (circuit, p, m) measurement: every column of Tables 2 and 3.
type Row struct {
	Circuit string
	Gates   int
	P, M    int

	// Table 2 columns.
	BSIMTime   time.Duration
	CovTimings core.Timings // CNF (incl. BSIM), One, All
	SatTimings core.Timings
	SatVars    int
	SatClauses int
	// SatCopies is the number of test copies the SAT engine encoded: M
	// for the monolithic driver, the tests that yielded a core for
	// CEGAR.
	SatCopies int
	// SatShards is the enumeration shard count of the SAT column (1 =
	// monolithic).
	SatShards int

	// Table 3 columns.
	BSIMQ metrics.BSIMQuality
	CovQ  metrics.SolutionQuality
	SatQ  metrics.SolutionQuality

	// Extra context recorded in EXPERIMENTS.md.
	CovHit, SatHit float64 // fraction of solutions containing a real site
	Sites          []int
}

// Scenario fixes a circuit, an injected fault set, and a generated
// test list shared across the m sweep.
type Scenario struct {
	Golden *circuit.Circuit
	Faulty *circuit.Circuit
	Fs     *faults.FaultSet
	Tests  circuit.TestSet
}

// Prepare generates the circuit, injects cfg.P errors and derives the
// maximal test-set needed by the sweep. If random simulation cannot
// expose the fault within its pattern budget, SAT-based ATPG supplies
// the tests; the seed is retried a few times against undetectable
// injections.
func Prepare(cfg Config) (*Scenario, error) {
	var (
		golden *circuit.Circuit
		err    error
	)
	if cfg.PaperScale {
		spec, ok := gen.PaperScaleSpec(cfg.Circuit)
		if !ok {
			return nil, fmt.Errorf("expt: unknown circuit %q", cfg.Circuit)
		}
		golden, err = gen.Generate(spec)
	} else {
		golden, err = gen.ByName(cfg.Circuit)
	}
	if err != nil {
		return nil, err
	}
	maxM := 0
	for _, m := range msOrDefault(cfg) {
		if m > maxM {
			maxM = m
		}
	}
	for attempt := 0; attempt < 5; attempt++ {
		seed := cfg.Seed + int64(attempt)*1009
		faulty, fs, err := faults.Inject(golden, faults.Options{Count: cfg.P, Model: cfg.Model, Seed: seed})
		if err != nil {
			return nil, err
		}
		tests, err := tgen.Random(golden, faulty, tgen.Options{Count: maxM, Seed: seed, MaxPatterns: 1 << 14})
		if err == tgen.ErrUndetected {
			tests, err = tgen.ATPG(golden, faulty, tgen.ATPGOptions{Count: maxM, MaxConflicts: 200000})
			if err == tgen.ErrUndetected {
				continue // equivalent mutation; resample
			}
		}
		if err != nil {
			return nil, err
		}
		if len(tests) < maxM {
			// Top up with ATPG-derived vectors when random simulation found
			// too few distinct failing triples.
			extra, aerr := tgen.ATPG(golden, faulty, tgen.ATPGOptions{Count: maxM, MaxConflicts: 200000, PerVector: tgen.AllOutputs})
			if aerr == nil {
				tests = dedupeTests(append(tests, extra...))
			}
		}
		if len(tests) == 0 {
			continue
		}
		return &Scenario{Golden: golden, Faulty: faulty, Fs: fs, Tests: tests}, nil
	}
	return nil, fmt.Errorf("expt: could not expose %d injected errors on %s", cfg.P, cfg.Circuit)
}

func dedupeTests(ts circuit.TestSet) circuit.TestSet {
	seen := make(map[string]bool, len(ts))
	var out circuit.TestSet
	for _, t := range ts {
		key := fmt.Sprint(t.Output, t.Want, t.Vector)
		if !seen[key] {
			seen[key] = true
			out = append(out, t)
		}
	}
	return out
}

func msOrDefault(cfg Config) []int {
	if len(cfg.Ms) == 0 {
		return DefaultMs
	}
	return cfg.Ms
}

// RunRow measures one (scenario, m) point: BSIM, COV and BSAT with k = p.
func RunRow(cfg Config, sc *Scenario, m int) (*Row, error) {
	tests := sc.Tests.Prefix(m)
	if len(tests) == 0 {
		return nil, fmt.Errorf("expt: empty test prefix")
	}
	row := &Row{
		Circuit: cfg.Circuit,
		Gates:   sc.Faulty.NumGates(),
		P:       cfg.P,
		M:       len(tests),
		Sites:   sc.Fs.Sites(),
	}

	bsim := core.BSIM(sc.Faulty, tests, core.PTOptions{})
	row.BSIMTime = bsim.Elapsed
	row.BSIMQ = metrics.MeasureBSIM(sc.Faulty, bsim, row.Sites)

	covRes, err := core.COV(sc.Faulty, tests, core.CovOptions{
		K:            cfg.P,
		MaxSolutions: cfg.Budget.MaxSolutions,
	})
	if err != nil {
		return nil, fmt.Errorf("expt: COV on %s: %w", cfg.Circuit, err)
	}
	row.CovTimings = covRes.Timings
	row.CovQ = metrics.MeasureSolutions(sc.Faulty, &covRes.SolutionSet, row.Sites)
	row.CovHit = metrics.HitRate(&covRes.SolutionSet, row.Sites)

	satOpts := core.BSATOptions{
		K:            cfg.P,
		MaxSolutions: cfg.Budget.MaxSolutions,
		MaxConflicts: cfg.Budget.MaxConflicts,
		Timeout:      cfg.Budget.Timeout,
		Shards:       cfg.Shards,
	}
	row.SatShards = cfg.Shards
	if row.SatShards < 1 {
		row.SatShards = 1
	}
	var satRes *core.BSATResult
	switch cfg.Engine {
	case EngineCEGAR:
		cres, err := core.CEGARDiagnose(sc.Faulty, tests, satOpts)
		if err != nil {
			return nil, fmt.Errorf("expt: CEGAR on %s: %w", cfg.Circuit, err)
		}
		satRes = &cres.BSATResult
		row.SatCopies = cres.Copies
	default:
		res, err := core.BSAT(sc.Faulty, tests, satOpts)
		if err != nil {
			return nil, fmt.Errorf("expt: BSAT on %s: %w", cfg.Circuit, err)
		}
		satRes = res
		row.SatCopies = len(tests)
	}
	row.SatTimings = satRes.Timings
	row.SatVars, row.SatClauses = satRes.Vars, satRes.Clauses
	row.SatQ = metrics.MeasureSolutions(sc.Faulty, &satRes.SolutionSet, row.Sites)
	row.SatHit = metrics.HitRate(&satRes.SolutionSet, row.Sites)
	return row, nil
}

// RunConfig prepares the scenario and measures every m of the sweep.
func RunConfig(cfg Config) ([]*Row, error) {
	sc, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	var rows []*Row
	for _, m := range msOrDefault(cfg) {
		row, err := RunRow(cfg, sc, m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2Configs returns the paper's Table 2/3 workload on the synthetic
// analogs: s1423x with p=4, s6669x with p=3, s38417x with p=2.
func Table2Configs(budget Budget) []Config {
	return []Config{
		{Circuit: "s1423x", P: 4, Seed: 1, Budget: budget},
		{Circuit: "s6669x", P: 3, Seed: 2, Budget: budget},
		{Circuit: "s38417x", P: 2, Seed: 3, Budget: budget},
	}
}

// Point is one Figure 6 scatter point: COV on the x axis, BSAT on y.
type Point struct {
	Circuit string
	P, M    int
	X, Y    float64
}

// Figure6Sweep runs the scatter workload: each small-suite circuit with
// p = 1..maxP errors and the given test counts; returns the quality
// scatter (avg distance, Figure 6a) and the solution-count scatter
// (Figure 6b).
func Figure6Sweep(circuits []string, maxP int, ms []int, budget Budget) (avgPts, numPts []Point, err error) {
	for _, name := range circuits {
		for p := 1; p <= maxP; p++ {
			cfg := Config{Circuit: name, P: p, Ms: ms, Seed: int64(p)*7919 + 11, Budget: budget}
			rows, rerr := RunConfig(cfg)
			if rerr != nil {
				return nil, nil, rerr
			}
			for _, row := range rows {
				if !math.IsNaN(row.CovQ.AvgAvg) && !math.IsNaN(row.SatQ.AvgAvg) {
					avgPts = append(avgPts, Point{Circuit: name, P: p, M: row.M, X: row.CovQ.AvgAvg, Y: row.SatQ.AvgAvg})
				}
				numPts = append(numPts, Point{Circuit: name, P: p, M: row.M,
					X: float64(row.CovQ.NumSolutions), Y: float64(row.SatQ.NumSolutions)})
			}
		}
	}
	return avgPts, numPts, nil
}

// RenderTable2 renders the runtime comparison in the layout of Table 2,
// extended with the number of test copies the SAT engine encoded
// (m for the monolithic driver, the tests that yielded a core for CEGAR)
// and the enumeration shard count (shard scaling: same solutions, the
// SAT columns shrink as shards increase).
func RenderTable2(w io.Writer, rows []*Row) {
	fmt.Fprintf(w, "%-10s %2s %3s | %8s | %8s %8s %8s | %8s %8s %8s %6s %6s\n",
		"I", "p", "m", "BSIM", "COV:CNF", "One", "All", "SAT:CNF", "One", "All", "copies", "shards")
	fmt.Fprintln(w, strings.Repeat("-", 110))
	for _, r := range rows {
		shards := r.SatShards
		if shards < 1 {
			shards = 1
		}
		fmt.Fprintf(w, "%-10s %2d %3d | %8s | %8s %8s %8s | %8s %8s %8s %6d %6d\n",
			r.Circuit, r.P, r.M,
			fmtDur(r.BSIMTime),
			fmtDur(r.CovTimings.CNF), fmtDur(r.CovTimings.One), fmtDur(r.CovTimings.All),
			fmtDur(r.SatTimings.CNF), fmtDur(r.SatTimings.One), fmtDur(r.SatTimings.All),
			r.SatCopies, shards)
	}
}

// RenderTable3 renders the quality comparison in the layout of Table 3.
func RenderTable3(w io.Writer, rows []*Row) {
	fmt.Fprintf(w, "%-10s %2s %3s | %6s %6s %5s %4s %4s %6s | %7s %6s %6s %6s | %7s %6s %6s %6s\n",
		"I", "p", "m", "|UCi|", "avgA", "Gmax", "min", "max", "avgG",
		"COV#sol", "min", "max", "avg", "SAT#sol", "min", "max", "avg")
	fmt.Fprintln(w, strings.Repeat("-", 132))
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %2d %3d | %6d %6s %5d %4d %4d %6s | %7d %6s %6s %6s | %7d %6s %6s %6s\n",
			r.Circuit, r.P, r.M,
			r.BSIMQ.UnionSize, metrics.Fmt(r.BSIMQ.AvgAll),
			r.BSIMQ.GmaxSize, r.BSIMQ.GminDist, r.BSIMQ.GmaxDist, metrics.Fmt(r.BSIMQ.GavgDist),
			r.CovQ.NumSolutions, metrics.Fmt(r.CovQ.MinAvg), metrics.Fmt(r.CovQ.MaxAvg), metrics.Fmt(r.CovQ.AvgAvg),
			r.SatQ.NumSolutions, metrics.Fmt(r.SatQ.MinAvg), metrics.Fmt(r.SatQ.MaxAvg), metrics.Fmt(r.SatQ.AvgAvg))
	}
}

// RenderPointsCSV emits a scatter as CSV (circuit, p, m, cov, bsat).
func RenderPointsCSV(w io.Writer, pts []Point) {
	fmt.Fprintln(w, "circuit,p,m,cov,bsat")
	for _, pt := range pts {
		fmt.Fprintf(w, "%s,%d,%d,%g,%g\n", pt.Circuit, pt.P, pt.M, pt.X, pt.Y)
	}
}

// RenderScatterASCII draws a coarse terminal scatter with the diagonal
// marked, mirroring the visual argument of Figure 6 ("points below the
// diagonal mean BSAT is better").
func RenderScatterASCII(w io.Writer, pts []Point, logScale bool, title string) {
	const size = 24
	grid := make([][]byte, size)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", size*2))
	}
	tr := func(v float64) float64 {
		if logScale {
			return math.Log10(v + 1)
		}
		return v
	}
	maxV := 1e-9
	for _, p := range pts {
		if tr(p.X) > maxV {
			maxV = tr(p.X)
		}
		if tr(p.Y) > maxV {
			maxV = tr(p.Y)
		}
	}
	for d := 0; d < size; d++ {
		grid[size-1-d][d*2] = '.'
	}
	below, above := 0, 0
	for _, p := range pts {
		x := int(tr(p.X) / maxV * float64(size-1))
		y := int(tr(p.Y) / maxV * float64(size-1))
		grid[size-1-y][x*2] = '*'
		switch {
		case p.Y < p.X:
			below++
		case p.Y > p.X:
			above++
		}
	}
	fmt.Fprintf(w, "%s  (x: COV, y: BSAT; '.' diagonal; %d below / %d above diagonal)\n", title, below, above)
	for _, line := range grid {
		fmt.Fprintf(w, "|%s\n", string(line))
	}
	fmt.Fprintf(w, "+%s\n", strings.Repeat("-", size*2))
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// SortRows orders rows by (circuit-size, p, m) for stable rendering.
func SortRows(rows []*Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Gates != rows[j].Gates {
			return rows[i].Gates < rows[j].Gates
		}
		if rows[i].Circuit != rows[j].Circuit {
			return rows[i].Circuit < rows[j].Circuit
		}
		if rows[i].P != rows[j].P {
			return rows[i].P < rows[j].P
		}
		return rows[i].M < rows[j].M
	})
}
