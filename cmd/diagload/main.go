// Command diagload drives a running diagserver with synthetic diagnosis
// traffic. -scenario picks one of a table of scenarios; all of them send
// their requests through one client and judge answers with one
// equivalence check (sameSolutions: the solution sets' canonical JSON
// must be byte-identical).
//
//	diagload -addr http://localhost:8344 -n 100 -c 8 -circuits s298x,s400x,s526x -zipf 1.2
//	    load: closed-loop mixed traffic; throughput, p50/p99 per serving
//	    mode and the server's pool counters
//	diagload -scenario smoke -circuits s1423x -tests 16 -inject 2 -min-speedup 2
//	    the serving gate on one workload: a first request that misses the
//	    pool, then cold, warm (pool hit) and incremental requests whose
//	    answers must all equal the first; prints best-of-reps latencies
//	diagload -scenario chaos
//	    the fault-tolerance gate against a failpoint-armed server
//	    (diagserver -failpoints ...): the load scenario's traffic, no 5xx
//	    but 503/504, every degraded answer explains itself, every complete
//	    answer equals a local fault-free diagnosis, faults were observed
//	diagload -scenario restart-prime -state st.json   (then SIGKILL + restart the server)
//	diagload -scenario restart-verify -state st.json
//	    the crash-equivalence gate against a diagserver -journal-dir:
//	    prime warms the pool, retracts one test from each session and
//	    records the answers; verify waits out the replay, then a no-op
//	    edit and a re-sent request on each replayed session must land
//	    warm, encode no test copy and reproduce the recorded answers
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/tgen"
	"repro/internal/trace"
)

// scenarios is the table -scenario selects from.
var scenarios = []struct {
	name string
	run  func(config) error
}{
	{"load", runLoad},
	{"smoke", runSmoke},
	{"chaos", runChaos},
	{"restart-prime", runRestartPrime},
	{"restart-verify", runRestartVerify},
}

type config struct {
	addr        string
	scenario    string
	state       string // baseline file the restart scenarios share
	circuits    []string
	inject      int
	seed        int64
	tests       int
	k           int
	shards      []int    // each request draws one uniformly
	engines     []string // each request draws one uniformly
	n           int
	clients     int
	zipf        float64
	coldFrac    float64
	reps        int
	minSpeed    float64
	traceSample int
	sampleCap   int // the requests' sample-stage cap (0 = server default)
	out         io.Writer
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8344", "diagserver base URL")
		scenario = flag.String("scenario", "load", "what to run: "+scenarioNames())
		state    = flag.String("state", "diagload-restart.json", "baseline file shared by the restart scenarios")
		circuits = flag.String("circuits", "s298x,s400x,s526x", "comma-separated suite circuits")
		inject   = flag.Int("inject", 1, "errors injected per circuit")
		seed     = flag.Int64("seed", 1, "workload seed")
		tests    = flag.Int("tests", 8, "failing tests per workload")
		k        = flag.Int("k", 0, "correction size limit (0 = number of injected errors)")
		shards   = flag.String("shards", "1", "comma-separated shard counts; each request draws one")
		engines  = flag.String("engines", "bsat", "comma-separated engine mix; each request draws one")
		n        = flag.Int("n", 50, "total requests (load, chaos)")
		clients  = flag.Int("c", 4, "concurrent clients (load, chaos)")
		zipf     = flag.Float64("zipf", 1.2, "circuit popularity skew (<=1 = uniform)")
		coldFrac = flag.Float64("cold-frac", 0, "fraction of requests forced cold (pool bypass)")
		reps     = flag.Int("reps", 3, "repetitions per stage in smoke")
		minSpeed = flag.Float64("min-speedup", 0, "smoke fails when the warm speedup over cold is below this")
		sample   = flag.Int("trace-sample", 0, "after a load run, print the span breakdown of the N slowest requests")
	)
	flag.Parse()
	cfg := config{
		addr: strings.TrimRight(*addr, "/"), scenario: *scenario, state: *state,
		circuits: splitList(*circuits), inject: *inject, seed: *seed, tests: *tests, k: *k,
		engines: splitList(*engines), n: *n, clients: *clients, zipf: *zipf, coldFrac: *coldFrac,
		reps: *reps, minSpeed: *minSpeed, traceSample: *sample, out: os.Stdout,
	}
	run, err := cfg.validate(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagload:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "diagload:", err)
		os.Exit(1)
	}
}

func scenarioNames() string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	return strings.Join(names, "|")
}

// validate checks every flag value, fills in the defaults and returns
// the selected scenario. Its errors are usage errors.
func (cfg *config) validate(shards string) (func(config) error, error) {
	var run func(config) error
	for _, s := range scenarios {
		if s.name == cfg.scenario {
			run = s.run
		}
	}
	var err error
	cfg.shards, err = splitInts(shards)
	switch {
	case run == nil:
		return nil, fmt.Errorf("-scenario: unknown scenario %q (want %s)", cfg.scenario, scenarioNames())
	case err != nil:
		return nil, fmt.Errorf("-shards: %w", err)
	case len(cfg.circuits) == 0:
		return nil, fmt.Errorf("-circuits: need at least one circuit")
	case cfg.n < 1:
		return nil, fmt.Errorf("-n: need at least one request, got %d", cfg.n)
	case cfg.clients < 1:
		return nil, fmt.Errorf("-c: need at least one client, got %d", cfg.clients)
	case cfg.reps < 1:
		return nil, fmt.Errorf("-reps: need at least one repetition, got %d", cfg.reps)
	case cfg.tests < 1:
		return nil, fmt.Errorf("-tests: need at least one test, got %d", cfg.tests)
	case cfg.scenario == "restart-prime" && cfg.tests < 2:
		return nil, fmt.Errorf("-tests: restart-prime retracts one test, need at least 2, got %d", cfg.tests)
	}
	if cfg.k <= 0 {
		cfg.k = cfg.inject
	}
	if len(cfg.engines) == 0 {
		cfg.engines = []string{"bsat"}
	}
	if len(cfg.shards) == 0 {
		cfg.shards = []int{1}
	}
	return run, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		var v int
		if _, err := fmt.Sscanf(p, "%d", &v); err != nil || v < 1 {
			return nil, fmt.Errorf("bad count %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// workload is one circuit's request payload. The restart scenarios
// write it to the state file with the answer prime recorded; chaos
// keeps the local fault-free answer in Solutions.
type workload struct {
	Name      string             `json:"name"`
	Bench     string             `json:"bench"`
	Tests     []service.TestJSON `json:"tests"`
	Solutions [][]int            `json:"solutions,omitempty"`
	extra     []service.TestJSON // spare test for smoke's incremental edits
}

// prepare builds the faulty circuit and failing tests for each named
// circuit, scanning seeds until the injected fault is detectable.
func prepare(cfg config) ([]workload, error) {
	loads := make([]workload, 0, len(cfg.circuits))
	for ci, name := range cfg.circuits {
		golden, err := gen.ByName(name)
		if err != nil {
			return nil, err
		}
		var wl *workload
		for s := cfg.seed + int64(ci); s < cfg.seed+int64(ci)+50; s++ {
			faulty, _, err := faults.Inject(golden, faults.Options{Count: cfg.inject, Seed: s})
			if err != nil {
				return nil, fmt.Errorf("%s: inject: %w", name, err)
			}
			// One spare test beyond the base set feeds smoke's
			// incremental edits.
			ts, err := tgen.Random(golden, faulty, tgen.Options{Count: cfg.tests + 1, Seed: s})
			if err == tgen.ErrUndetected {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("%s: tests: %w", name, err)
			}
			var sb strings.Builder
			if err := circuit.WriteBench(&sb, faulty); err != nil {
				return nil, err
			}
			wire := service.EncodeTests(ts)
			wl = &workload{Name: name, Bench: sb.String(), Tests: wire[:cfg.tests], extra: wire[cfg.tests:]}
			break
		}
		if wl == nil {
			return nil, fmt.Errorf("%s: no detectable fault in 50 seeds", name)
		}
		loads = append(loads, *wl)
	}
	return loads, nil
}

// localTruth computes the fault-free diagnosis of a workload in this
// process, on the server's view of the circuit: the baseline served
// answers are checked against.
func localTruth(wl workload, k int) ([][]int, error) {
	c, err := circuit.ParseBench(wl.Name, strings.NewReader(wl.Bench))
	if err != nil {
		return nil, err
	}
	tests, err := service.DecodeTests(c, wl.Tests)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	rep, err := core.Diagnose(context.Background(), core.Request{
		Engine: "bsat", Circuit: c, Tests: tests, K: k,
	})
	if err != nil {
		return nil, err
	}
	if !rep.Complete {
		return nil, fmt.Errorf("%s: local baseline incomplete", wl.Name)
	}
	sols := make([][]int, len(rep.Solutions))
	for i, s := range rep.Solutions {
		sols[i] = s.Gates
	}
	return sols, nil
}

// sameSolutions is the equivalence check every scenario uses: two
// answers agree when their solution sets' canonical JSON is
// byte-identical.
func sameSolutions(what string, got, want [][]int) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("%s: solutions diverged:\n got  %s\n want %s", what, g, w)
	}
	return nil
}

// post sends body as JSON and decodes the diagnosis response. code is
// the HTTP status, 0 when no response arrived; a non-200 status is an
// error carrying the server's message.
func (cfg config) post(path string, body any) (code int, resp service.DiagnoseResponse, err error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, resp, err
	}
	r, err := http.Post(cfg.addr+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, resp, err
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	switch {
	case err != nil:
	case r.StatusCode != http.StatusOK:
		err = fmt.Errorf("%s: HTTP %d: %s", path, r.StatusCode, strings.TrimSpace(string(raw)))
	default:
		if err = json.Unmarshal(raw, &resp); err != nil {
			err = fmt.Errorf("%s: decode: %w", path, err)
		}
	}
	return r.StatusCode, resp, err
}

// get fetches path and returns the status and body.
func (cfg config) get(path string) (int, []byte, error) {
	r, err := http.Get(cfg.addr + path)
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	return r.StatusCode, raw, err
}

// metric scrapes one plain sample from /metrics.
func (cfg config) metric(name string) (int64, error) {
	_, raw, err := cfg.get("/metrics")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%d", &v); err != nil {
				return 0, err
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}

func (cfg config) request(wl workload, mode, engine string, shards int) service.DiagnoseRequest {
	return service.DiagnoseRequest{
		Bench:     wl.Bench,
		Tests:     wl.Tests,
		K:         cfg.k,
		Shards:    shards,
		Engine:    engine,
		Mode:      mode,
		SampleCap: cfg.sampleCap,
	}
}

// base is the single-choice request of the smoke and restart scenarios.
func (cfg config) base(wl workload, mode string) service.DiagnoseRequest {
	return cfg.request(wl, mode, cfg.engines[0], cfg.shards[0])
}

// outcome is one request drive sent and what came back.
type outcome struct {
	wl     *workload
	shards int
	d      time.Duration
	code   int
	resp   service.DiagnoseResponse
	err    error
}

// drive sends the closed-loop traffic of load and chaos: cfg.clients
// clients take request numbers from one counter until cfg.n requests
// are sent. Each client draws every request from its own seeded RNG:
// the workload (zipf-skewed when -zipf > 1), cold mode at -cold-frac,
// the engine and the shard count. It returns the outcomes in request
// order and the wall time.
func drive(cfg config, loads []workload) ([]outcome, time.Duration) {
	outs := make([]outcome, cfg.n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.seed + int64(c)*7919))
			var z *rand.Zipf
			if cfg.zipf > 1 && len(loads) > 1 {
				z = rand.NewZipf(r, cfg.zipf, 1, uint64(len(loads)-1))
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.n {
					return
				}
				var wl *workload
				if z != nil {
					wl = &loads[z.Uint64()]
				} else {
					wl = &loads[r.Intn(len(loads))]
				}
				mode := ""
				if cfg.coldFrac > 0 && r.Float64() < cfg.coldFrac {
					mode = "cold"
				}
				engine := cfg.engines[r.Intn(len(cfg.engines))]
				shards := cfg.shards[r.Intn(len(cfg.shards))]
				t0 := time.Now()
				code, resp, err := cfg.post("/diagnose", cfg.request(*wl, mode, engine, shards))
				outs[i] = outcome{wl: wl, shards: shards, d: time.Since(t0), code: code, resp: resp, err: err}
			}
		}(c)
	}
	wg.Wait()
	return outs, time.Since(start)
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// runLoad drives mixed traffic and reports throughput, latency
// quantiles per serving mode and the server's pool counters.
func runLoad(cfg config) error {
	loads, err := prepare(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "workloads: %d circuits, %d tests each, k=%d, engines=%v, shards=%v\n",
		len(loads), cfg.tests, cfg.k, cfg.engines, cfg.shards)
	outs, elapsed := drive(cfg, loads)
	byMode := map[string][]time.Duration{}
	hits := 0
	for _, o := range outs {
		if o.err != nil {
			return o.err
		}
		byMode[o.resp.Mode] = append(byMode[o.resp.Mode], o.d)
		if o.resp.PoolHit {
			hits++
		}
	}
	fmt.Fprintf(cfg.out, "%d requests in %v — %.1f req/s, client-observed pool hits %d/%d\n",
		cfg.n, elapsed.Round(time.Millisecond), float64(cfg.n)/elapsed.Seconds(), hits, cfg.n)
	modes := make([]string, 0, len(byMode))
	for m := range byMode {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	for _, m := range modes {
		ds := byMode[m]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		fmt.Fprintf(cfg.out, "  %-11s n=%-4d p50=%-10v p99=%v\n",
			m, len(ds), quantile(ds, 0.50).Round(time.Microsecond), quantile(ds, 0.99).Round(time.Microsecond))
	}
	for _, name := range []string{"diag_pool_hits_total", "diag_pool_misses_total", "diag_pool_evictions_total"} {
		if v, err := cfg.metric(name); err == nil {
			fmt.Fprintf(cfg.out, "  %s %d\n", name, v)
		}
	}
	if cfg.traceSample > 0 {
		sort.Slice(outs, func(i, j int) bool { return outs[i].d > outs[j].d })
		outs = outs[:min(cfg.traceSample, len(outs))]
		fmt.Fprintf(cfg.out, "slowest %d request(s):\n", len(outs))
		for _, o := range outs {
			fmt.Fprintf(cfg.out, "  %s %s %s client-observed %v\n", o.resp.RequestID, o.wl.Name, o.resp.Mode, o.d.Round(time.Microsecond))
			if o.resp.Timings == nil {
				fmt.Fprintf(cfg.out, "    (no timings in response — old server?)\n")
				continue
			}
			printSpan(cfg.out, o.resp.Timings, 2)
		}
	}
	return nil
}

// printSpan renders one span breakdown as an indented tree: duration,
// phases, counters, children.
func printSpan(w io.Writer, s *trace.SpanJSON, indent int) {
	pad := strings.Repeat("  ", indent)
	detail := ""
	if s.Detail != "" {
		detail = " [" + s.Detail + "]"
	}
	fmt.Fprintf(w, "%s%s%s %.3fms\n", pad, s.Name, detail, s.DurationMS)
	for _, p := range s.Phases {
		fmt.Fprintf(w, "%s  %-14s %.3fms\n", pad, p.Name, p.DurationMS)
	}
	if len(s.Counters) > 0 {
		keys := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "%s  counters:", pad)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, s.Counters[k])
		}
		fmt.Fprintln(w)
	}
	for _, c := range s.Children {
		printSpan(w, c, indent+1)
	}
}

// runSmoke is the serving gate on the first circuit. One auto request
// must miss the pool; then -reps cold requests, -reps warm requests
// (each a pool hit) and -reps incremental edits that alternately add
// and retract the spare test. Every complete answer of the cold and
// warm requests and of the retract edits must equal the first answer,
// and /metrics must count at least -reps pool hits. It prints each
// stage's best latency and fails when the warm speedup over cold is
// below -min-speedup.
func runSmoke(cfg config) error {
	cfg.circuits = cfg.circuits[:1]
	loads, err := prepare(cfg)
	if err != nil {
		return err
	}
	wl := loads[0]
	fmt.Fprintf(cfg.out, "smoke: %s, %d tests, k=%d, shards=%d, %d reps\n",
		wl.Name, cfg.tests, cfg.k, cfg.shards[0], cfg.reps)
	_, first, err := cfg.post("/diagnose", cfg.base(wl, ""))
	if err != nil {
		return err
	}
	if first.PoolHit {
		return fmt.Errorf("smoke: first request unexpectedly hit the pool")
	}
	if !first.Complete {
		return fmt.Errorf("smoke: first answer is incomplete; nothing to compare against")
	}
	edits := "/sessions/" + first.Session + "/tests"
	stages := []string{"cold", "warm", "incremental"}
	best := make([]time.Duration, len(stages))
	for si, stage := range stages {
		for rep := 0; rep < cfg.reps; rep++ {
			path, body, compare := "/diagnose", any(cfg.base(wl, "")), true
			switch {
			case stage == "cold":
				body = cfg.base(wl, "cold")
			case stage == "incremental" && rep%2 == 0:
				path, body, compare = edits, service.SessionTestsRequest{Add: wl.extra}, false
			case stage == "incremental":
				// The spare sits past the base tests.
				path, body = edits, service.SessionTestsRequest{Remove: []int{cfg.tests}}
			}
			t0 := time.Now()
			_, resp, err := cfg.post(path, body)
			d := time.Since(t0)
			if err != nil {
				return err
			}
			if stage == "warm" && !resp.PoolHit {
				return fmt.Errorf("smoke: warm request %d missed the pool (mode=%s)", rep+1, resp.Mode)
			}
			if compare && resp.Complete {
				if err := sameSolutions(fmt.Sprintf("smoke: %s request %d", stage, rep+1), resp.Solutions, first.Solutions); err != nil {
					return err
				}
			}
			if best[si] == 0 || d < best[si] {
				best[si] = d
			}
		}
	}
	hits, err := cfg.metric("diag_pool_hits_total")
	if err != nil {
		return err
	}
	if hits < int64(cfg.reps) {
		return fmt.Errorf("smoke: /metrics reports %d pool hits, want >= %d", hits, cfg.reps)
	}
	cold, warm, incr := best[0], best[1], best[2]
	speedW := float64(cold) / float64(warm)
	fmt.Fprintf(cfg.out, "  cold        %v\n  warm        %v  (%.2fx)\n  incremental %v  (%.2fx)\n",
		cold.Round(time.Microsecond), warm.Round(time.Microsecond), speedW,
		incr.Round(time.Microsecond), float64(cold)/float64(incr))
	if cfg.minSpeed > 0 && speedW < cfg.minSpeed {
		return fmt.Errorf("smoke: warm speedup %.2fx below required %.2fx", speedW, cfg.minSpeed)
	}
	fmt.Fprintf(cfg.out, "smoke ok: %s first request missed the pool, %d warm hits, %d solutions identical on every path\n",
		wl.Name, cfg.reps, len(first.Solutions))
	return nil
}

// runChaos is the fault-tolerance gate: drive mixed traffic at a
// server started with failpoints armed and assert that no 5xx other
// than 503/504 escaped the recovery layers, at least one request
// completed, every degraded answer carries its flight recorder, every
// complete answer equals the local fault-free diagnosis, the fault
// counters moved, and the server is still live afterwards.
func runChaos(cfg config) error {
	loads, err := prepare(cfg)
	if err != nil {
		return err
	}
	for i := range loads {
		if loads[i].Solutions, err = localTruth(loads[i], cfg.k); err != nil {
			return err
		}
	}
	fmt.Fprintf(cfg.out, "chaos: %d circuits, %d requests, %d clients, shards=%v\n",
		len(loads), cfg.n, cfg.clients, cfg.shards)
	// A minimal sample stage pushes sharded work onto the cube workers,
	// where the cnf/cube failpoints live.
	cfg.sampleCap = 1
	outs, _ := drive(cfg, loads)

	codes := map[int]int{}
	completed, degraded := 0, 0
	undumped := 0 // degraded answers missing their flight-recorder dump
	var mismatches, transport []error
	for _, o := range outs {
		switch {
		case o.code != 0 && o.code != http.StatusOK:
			codes[o.code]++
		case o.err != nil:
			transport = append(transport, o.err)
		case o.resp.Complete:
			completed++
			codes[o.code]++
			if err := sameSolutions(fmt.Sprintf("%s shards=%d", o.wl.Name, o.shards), o.resp.Solutions, o.wl.Solutions); err != nil {
				mismatches = append(mismatches, err)
			}
		default:
			degraded++
			codes[o.code]++
			// The degradation contract includes the black box: an
			// incomplete answer must explain itself.
			if len(o.resp.FlightRecorder) == 0 {
				undumped++
			}
		}
	}
	fmt.Fprintf(cfg.out, "  status codes: %v, complete %d, degraded %d\n", codes, completed, degraded)
	observed := int64(0)
	for _, name := range []string{
		"diag_panics_recovered", "diag_cube_retries", "diag_degraded_responses",
		"diag_request_retries_total", "diag_sched_queue_timeouts_total",
	} {
		if v, err := cfg.metric(name); err == nil {
			fmt.Fprintf(cfg.out, "  %s %d\n", name, v)
			observed += v
		}
	}
	if len(transport) > 0 {
		return fmt.Errorf("chaos: %d transport errors (server died?), first: %v", len(transport), transport[0])
	}
	for code, n := range codes {
		if code >= 500 && code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout {
			return fmt.Errorf("chaos: %d responses with status %d — a panic escaped the recovery layers", n, code)
		}
	}
	if completed == 0 {
		return fmt.Errorf("chaos: no request completed — degradation swallowed the whole run")
	}
	if undumped > 0 {
		return fmt.Errorf("chaos: %d/%d degraded responses carried no flight-recorder dump", undumped, degraded)
	}
	if len(mismatches) > 0 {
		return fmt.Errorf("chaos: %d completed responses diverged from the fault-free baseline, first: %v",
			len(mismatches), mismatches[0])
	}
	if observed == 0 {
		return fmt.Errorf("chaos: no fault observed in the counters — are the server's failpoints armed?")
	}
	if code, _, err := cfg.get("/livez"); err != nil || code != http.StatusOK {
		return fmt.Errorf("chaos: server not live after the run: status %d, %v", code, err)
	}
	fmt.Fprintf(cfg.out, "chaos ok: %d/%d complete and byte-identical, %d degraded, 0 unrecovered panics\n",
		completed, cfg.n, degraded)
	return nil
}

// restartState is the baseline restart-prime writes and restart-verify
// checks: each session's circuit and post-edit live test-set as exact
// wire payloads, with the answer the pre-crash server gave for them.
// Carrying the payloads (not just the workload seed) makes verify
// independent of generator drift.
type restartState struct {
	K         int        `json:"k"`
	Workloads []workload `json:"workloads"`
}

// runRestartPrime warms one session per circuit on a journaling server,
// retracts the first test from each (so an edit crosses the crash) and
// records the post-edit answers. The caller then kills the server
// (SIGKILL — no drain, no seal) and restarts it on the same journal
// before running restart-verify.
func runRestartPrime(cfg config) error {
	loads, err := prepare(cfg)
	if err != nil {
		return err
	}
	st := restartState{K: cfg.k}
	for _, wl := range loads {
		_, resp, err := cfg.post("/diagnose", cfg.base(wl, ""))
		if err != nil {
			return err
		}
		_, edit, err := cfg.post("/sessions/"+resp.Session+"/tests", service.SessionTestsRequest{Remove: []int{0}})
		if err != nil {
			return err
		}
		if !resp.Complete || !edit.Complete {
			return fmt.Errorf("prime: %s did not complete", wl.Name)
		}
		wl.Tests, wl.Solutions = wl.Tests[1:], edit.Solutions
		st.Workloads = append(st.Workloads, wl)
	}
	b, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.state, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "restart prime ok: %d sessions warmed, edited and journaled, baseline in %s\n",
		len(st.Workloads), cfg.state)
	return nil
}

// runRestartVerify is the post-crash half of the gate: wait out the
// boot replay, find each replayed session by its key and send it a
// no-op edit — it must re-run the journaled post-edit test-set with the
// journaled k — then re-send the live test-set as a full request. Both
// must land warm, encode no test copy, and answer as the pre-crash
// server did and as a local diagnosis does.
func runRestartVerify(cfg config) error {
	raw, err := os.ReadFile(cfg.state)
	if err != nil {
		return err
	}
	var st restartState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("%s: %w", cfg.state, err)
	}
	if len(st.Workloads) == 0 {
		return fmt.Errorf("%s: no workloads — run -scenario restart-prime first", cfg.state)
	}
	if err := waitReady(cfg, time.Minute); err != nil {
		return err
	}
	hits0, _ := cfg.metric("diag_pool_hits_total") // 0 on a fresh process
	ids, err := sessionIDs(cfg)
	if err != nil {
		return err
	}
	for _, wl := range st.Workloads {
		c, err := circuit.ParseBench(wl.Name, strings.NewReader(wl.Bench))
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		id := ids[service.Fingerprint(c)]
		if id == "" {
			return fmt.Errorf("verify: %s has no replayed session", wl.Name)
		}
		_, edit, err := cfg.post("/sessions/"+id+"/tests", service.SessionTestsRequest{})
		if err != nil {
			return err
		}
		if edit.Tests != len(wl.Tests) {
			return fmt.Errorf("verify: %s replayed %d live tests, want the post-edit %d", wl.Name, edit.Tests, len(wl.Tests))
		}
		_, resp, err := cfg.post("/diagnose", service.DiagnoseRequest{Bench: wl.Bench, Tests: wl.Tests, K: st.K})
		if err != nil {
			return err
		}
		if !resp.PoolHit {
			return fmt.Errorf("verify: %s rebuilt cold — replay did not restore the session", wl.Name)
		}
		local, err := localTruth(wl, st.K)
		if err != nil {
			return err
		}
		for _, r := range []struct {
			what string
			resp service.DiagnoseResponse
		}{{"no-op edit", edit}, {"re-sent request", resp}} {
			if r.resp.NewCopies != 0 {
				return fmt.Errorf("verify: %s %s re-encoded %d test copies — replay lost the live test-set",
					wl.Name, r.what, r.resp.NewCopies)
			}
			what := fmt.Sprintf("verify: %s %s", wl.Name, r.what)
			if err := sameSolutions(what+" vs the pre-crash baseline", r.resp.Solutions, wl.Solutions); err != nil {
				return err
			}
			if err := sameSolutions(what+" vs the local diagnosis", r.resp.Solutions, local); err != nil {
				return err
			}
		}
	}
	hits1, err := cfg.metric("diag_pool_hits_total")
	if err != nil {
		return err
	}
	if hits1-hits0 < int64(len(st.Workloads)) {
		return fmt.Errorf("verify: warm hit rate too low: %d hits for %d replayed requests",
			hits1-hits0, len(st.Workloads))
	}
	replayed, err := cfg.metric("diag_replay_sessions_total")
	if err != nil {
		return err
	}
	if replayed < 1 {
		return fmt.Errorf("verify: diag_replay_sessions_total=%d — did the server boot with -journal-dir?", replayed)
	}
	fmt.Fprintf(cfg.out, "restart verify ok: %d/%d sessions warm after crash (replayed=%d, pool hits +%d), solutions byte-identical\n",
		len(st.Workloads), len(st.Workloads), replayed, hits1-hits0)
	return nil
}

// waitReady polls /healthz until the server reports ready — during a
// boot replay it answers 503 "warming", which this deliberately sits
// through.
func waitReady(cfg config, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		code, _, err := cfg.get("/healthz")
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("healthz: %w", err)
			}
			return fmt.Errorf("healthz: not ready within %v", timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// sessionIDs lists the server's warm sessions as key -> session id.
func sessionIDs(cfg config) (map[string]string, error) {
	code, raw, err := cfg.get("/sessions")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/sessions: HTTP %d", code)
	}
	var infos []service.EntryInfo
	if err := json.Unmarshal(raw, &infos); err != nil {
		return nil, fmt.Errorf("/sessions: decode: %w", err)
	}
	ids := make(map[string]string, len(infos))
	for _, info := range infos {
		ids[info.Key] = info.ID
	}
	return ids, nil
}
