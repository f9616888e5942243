// Command diagbench is the repository benchmark: it runs one named
// workload against the diagnosis engines or the HTTP service, checks
// every answer against a reference computed in set-up, and prints its
// metrics as one JSON object on the last line of standard output.
//
//	diagbench --workload table2-enum --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced run (see README.md for both tables). --seed drives
// only the schedule (job order, serving traffic); --workload-seed picks
// the circuits, injected errors and tests, and 0 reproduces the cells the
// README documents. A wrong answer makes the run exit with status 1.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type config struct {
	workload     string
	seed         int64 // schedule: job order, serving traffic
	workloadSeed int64 // inputs: circuits, injected errors, tests
	seconds      float64
	trace        bool
	size         string // "full" or "tiny" (tests)
	repo         string // checkout root, for the source digest
	workdir      string // scratch space for the serving workload's journal
	commit       string
	digest       string // source digest of the repository, set by run
	// tamper corrupts one answer before the gate checks it; the
	// benchmark's own tests use it to prove the gate trips.
	tamper bool
}

// maxProcs caps the threads, clients and shard workers of every
// workload; the reference box has two cores.
const maxProcs = 2

var workloads = []string{"table2-enum", "engines-large", "serve-mixed"}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the library or the service sees,
// reported by untraced runs on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"batch_s", "s", "lower"},
	{"req_p50_ms", "ms", "lower"},
	{"req_p99_ms", "ms", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"heap_peak_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics. A workload that does not reach
// a layer reports 0 for it.
var perLayer = []metricDef{
	{"circuit.parse_ms", "ms", "lower"},
	{"core.bsim_ms", "ms", "lower"},
	{"core.cov_ms", "ms", "lower"},
	{"core.validate_us_per_correction", "us", "lower"},
	{"core.cegar_copies", "count", "lower"},
	{"core.cegar_refinements", "count", "lower"},
	{"core.cegar_checked", "count", "lower"},
	{"cnf.session_ms", "ms", "lower"},
	{"cnf.encode_ms", "ms", "lower"},
	{"cnf.vars", "count", "lower"},
	{"cnf.clauses", "count", "lower"},
	{"cnf.copies", "count", "lower"},
	{"cnf.shard_sample_ms", "ms", "lower"},
	{"cnf.shard_critical_ms", "ms", "lower"},
	{"cnf.shard_skew", "ratio", "lower"},
	{"cnf.shard_retries", "count", "lower"},
	{"cnf.shard_steals", "count", "lower"},
	{"sat.enum_ms", "ms", "lower"},
	{"sat.first_model_ms", "ms", "lower"},
	{"sat.models", "count", "higher"},
	{"sat.us_per_model", "us", "lower"},
	{"sat.decisions", "count", "lower"},
	{"sat.propagations", "count", "lower"},
	{"sat.conflicts", "count", "lower"},
	{"sat.ns_per_propagation", "ns", "lower"},
	{"sat.early_terms", "count", "higher"},
	{"sat.ref_models", "count", "higher"},
	{"sat.ref_decisions", "count", "lower"},
	{"sat.ref_propagations", "count", "lower"},
	{"service.queue_p50_ms", "ms", "lower"},
	{"service.queue_p99_ms", "ms", "lower"},
	{"service.session_wait_p50_ms", "ms", "lower"},
	{"service.session_wait_p99_ms", "ms", "lower"},
	{"service.pool_ms", "ms", "lower"},
	{"service.encode_ms", "ms", "lower"},
	{"service.solve_ms", "ms", "lower"},
	{"service.self_ms", "ms", "lower"},
	{"service.warm_p50_ms", "ms", "lower"},
	{"service.edit_p50_ms", "ms", "lower"},
	{"service.cold_p50_ms", "ms", "lower"},
	{"service.pool_hit_ratio", "ratio", "higher"},
	{"service.evictions", "count", "lower"},
	{"service.cold_builds", "count", "lower"},
	{"service.evicted_edits", "count", "lower"},
	{"service.retries", "count", "lower"},
	{"service.degraded", "count", "lower"},
	{"journal.appends", "count", "lower"},
	{"journal.bytes_per_edit", "bytes", "lower"},
	{"journal.syncs", "count", "lower"},
	{"journal.compactions", "count", "lower"},
	{"share.sat_enum_pct", "pct", "lower"},
	{"share.cnf_encode_pct", "pct", "lower"},
	{"share.core_cov_pct", "pct", "lower"},
	{"share.service_queue_pct", "pct", "lower"},
	{"share.service_pool_pct", "pct", "lower"},
	{"share.service_session_wait_pct", "pct", "lower"},
	{"share.service_encode_pct", "pct", "lower"},
	{"share.service_solve_pct", "pct", "lower"},
	{"share.service_self_pct", "pct", "lower"},
	{"bench.trace_overhead_pct", "pct", "lower"},
	{"bench.failed_ratio", "ratio", "lower"},
	{"bench.p99_tail_samples", "count", "higher"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// gate is the correctness gate's tally: every checked answer counts as
// attempted, every miss as failed.
type gate struct {
	attempted, failed int
	firstMiss         string
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.failed++
		if g.firstMiss == "" {
			g.firstMiss = fmt.Sprintf(format, args...)
		}
	}
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("diagbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "table2-enum | engines-large | serve-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "schedule seed (job order, serving traffic)")
	fs.Int64Var(&cfg.workloadSeed, "workload-seed", 0, "input seed (circuits, errors, tests); 0 = the documented cells, 3 = held out")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed region")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.size, "size", "full", "full | tiny")
	fs.StringVar(&cfg.repo, "repo", ".", "repository root (source digest)")
	fs.StringVar(&cfg.workdir, "workdir", os.TempDir(), "scratch directory for the journal")
	fs.StringVar(&cfg.commit, "commit", "unknown", "source commit, for the provenance block")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	if cfg.size != "full" && cfg.size != "tiny" {
		return cfg, fmt.Errorf("--size must be full or tiny, got %q", cfg.size)
	}
	return cfg, nil
}

// run executes one workload and assembles the result line. Human-readable
// lines (provenance, per-job tables, shares) go to log, each prefixed "#".
func run(cfg config, log io.Writer) (*result, error) {
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	cfg.digest = sourceDigest(cfg.repo)
	printBox(cfg, log)
	var (
		vals map[string]float64
		g    gate
		err  error
	)
	switch cfg.workload {
	case "table2-enum", "engines-large":
		vals, g, err = runOffline(cfg, log)
	case "serve-mixed":
		vals, g, err = runServe(cfg, log)
	default:
		err = fmt.Errorf("unknown workload %q (table2-enum, engines-large, serve-mixed)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if g.attempted == 0 {
		return nil, errors.New("no answer was checked")
	}
	failedRatio := float64(g.failed) / float64(g.attempted)
	fmt.Fprintf(log, "# gate attempted=%d failed=%d failed_ratio=%g\n", g.attempted, g.failed, failedRatio)
	if g.firstMiss != "" {
		fmt.Fprintf(log, "# gate first miss: %s\n", g.firstMiss)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		vals["bench.failed_ratio"] = failedRatio
	}
	res := &result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(log, "# metric %-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	return res, nil
}

// box is the provenance block printed ahead of every result.
type box struct {
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Go           string  `json:"go"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	Workload     string  `json:"workload"`
	WorkloadSeed int64   `json:"workload_seed"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	Size         string  `json:"size"`
}

func printBox(cfg config, w io.Writer) {
	b, _ := json.Marshal(box{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Go:           runtime.Version(),
		Commit:       cfg.commit,
		SourceSHA256: cfg.digest,
		Workload:     cfg.workload,
		WorkloadSeed: cfg.workloadSeed,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
		Size:         cfg.size,
	})
	fmt.Fprintf(w, "# box %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the module's Go sources and go.mod files outside the
// benchmark's own directory, so results from checkouts without git
// metadata still name the code they measured.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "diagbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
