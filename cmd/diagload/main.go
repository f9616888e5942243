// Command diagload replays synthetic multi-client diagnosis traffic
// against a running diagserver and reports throughput and latency
// quantiles, plus the server-side pool hit rate.
//
// Modes:
//
//	diagload -addr http://localhost:8344 -n 100 -c 8 -circuits s298x,s400x,s526x -zipf 1.2
//	    mixed load: zipf-popular circuits, warm pool, p50/p99 report
//	diagload -smoke
//	    one cold + one warm request; exits non-zero unless the warm
//	    request reports a pool hit with identical solutions
//	diagload -compare -circuits s1423x -tests 16 -inject 2
//	    cold vs warm vs incremental latency on one workload (the
//	    Table 2 amortization measurement)
//	diagload -chaos
//	    drive a failpoint-armed server (diagserver -failpoints ...) and
//	    assert the fault-tolerance contract: no 5xx escapes the
//	    recovery layers and every complete=true response is
//	    byte-identical to a locally computed fault-free diagnosis
//	diagload -restart prime -state st.json   (then SIGKILL + restart the server)
//	diagload -restart verify -state st.json
//	    crash-equivalence gate against a diagserver -journal-dir: prime
//	    warms the pool, retracts one test from each session and records
//	    the post-edit solutions; verify waits out the replay (503
//	    warming), then asserts a no-op edit on each replayed session and
//	    a re-sent request both hit it warm (no re-encoding) with
//	    byte-identical solutions
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
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/tgen"
	"repro/internal/trace"
)

type config struct {
	addr        string
	circuits    []string
	inject      int
	seed        int64
	tests       int
	k           int
	shards      []int    // each request draws one uniformly
	engines     []string // each request draws one uniformly ("" = bsat)
	n           int
	clients     int
	zipf        float64
	coldFrac    float64
	reps        int
	minSpeed    float64
	traceSample int
	out         io.Writer
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8344", "diagserver base URL")
		circuits = flag.String("circuits", "s298x,s400x,s526x", "comma-separated suite circuits")
		inject   = flag.Int("inject", 1, "errors injected per circuit")
		seed     = flag.Int64("seed", 1, "workload seed")
		tests    = flag.Int("tests", 8, "failing tests per workload")
		k        = flag.Int("k", 0, "correction size limit (0 = number of injected errors)")
		shards   = flag.String("shards", "1", "comma-separated shard counts; each request draws one")
		engines  = flag.String("engines", "bsat", "comma-separated engine mix; each request draws one")
		n        = flag.Int("n", 50, "total requests")
		clients  = flag.Int("c", 4, "concurrent clients")
		zipf     = flag.Float64("zipf", 1.2, "circuit popularity skew (<=1 = uniform)")
		coldFrac = flag.Float64("cold-frac", 0, "fraction of requests forced cold (pool bypass)")
		reps     = flag.Int("reps", 3, "repetitions per stage in -compare")
		minSpeed = flag.Float64("min-speedup", 0, "-compare exits non-zero when warm speedup is below this")
		smoke    = flag.Bool("smoke", false, "cold+warm smoke: assert the warm request hits the pool")
		compare  = flag.Bool("compare", false, "measure cold vs warm vs incremental latency")
		chaos    = flag.Bool("chaos", false, "fault-tolerance gate against a failpoint-armed server")
		restart  = flag.String("restart", "",
			"crash-equivalence gate phase: 'prime' warms the pool and records a baseline, 'verify' asserts warm replay after a restart")
		stateFile   = flag.String("state", "diagload-restart.json", "baseline file shared by the -restart phases")
		traceSample = flag.Int("trace-sample", 0,
			"after a load run, print the span breakdown of the N slowest requests")
	)
	flag.Parse()

	shardList, err := splitInts(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagload: -shards:", err)
		os.Exit(1)
	}
	cfg := config{
		addr: strings.TrimRight(*addr, "/"), circuits: splitList(*circuits),
		inject: *inject, seed: *seed, tests: *tests, k: *k,
		shards: shardList, engines: splitList(*engines),
		n: *n, clients: *clients, zipf: *zipf, coldFrac: *coldFrac,
		reps: *reps, minSpeed: *minSpeed, traceSample: *traceSample, out: os.Stdout,
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
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "diagload:", err)
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *smoke:
		err = runSmoke(cfg)
	case *compare:
		err = runCompare(cfg)
	case *chaos:
		err = runChaos(cfg)
	case *restart != "":
		err = runRestart(cfg, *restart, *stateFile)
	default:
		err = runLoad(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "diagload:", err)
		os.Exit(1)
	}
}

// validate rejects flag values no mode can run with.
func (cfg config) validate() error {
	switch {
	case len(cfg.circuits) == 0:
		return fmt.Errorf("-circuits: need at least one circuit")
	case cfg.n < 1:
		return fmt.Errorf("-n: need at least one request, got %d", cfg.n)
	case cfg.clients < 1:
		return fmt.Errorf("-c: need at least one client, got %d", cfg.clients)
	}
	return nil
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

// workload is one circuit's prepared request payload.
type workload struct {
	name  string
	bench string
	tests []service.TestJSON
	extra []service.TestJSON // spare tests for incremental edits
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
			// One spare test beyond the base set feeds -compare's
			// incremental stage.
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
			wire := toWire(ts)
			wl = &workload{name: name, bench: sb.String(), tests: wire[:cfg.tests], extra: wire[cfg.tests:]}
			break
		}
		if wl == nil {
			return nil, fmt.Errorf("%s: no detectable fault in 50 seeds", name)
		}
		loads = append(loads, *wl)
	}
	return loads, nil
}

func toWire(ts circuit.TestSet) []service.TestJSON {
	out := make([]service.TestJSON, len(ts))
	for i, t := range ts {
		var vb strings.Builder
		for _, b := range t.Vector {
			if b {
				vb.WriteByte('1')
			} else {
				vb.WriteByte('0')
			}
		}
		out[i] = service.TestJSON{Vector: vb.String(), Output: t.Output, Want: t.Want}
	}
	return out
}

func postJSON[T any](base, path string, body any) (T, error) {
	var out T
	b, err := json.Marshal(body)
	if err != nil {
		return out, err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, fmt.Errorf("%s: decode: %w", path, err)
	}
	return out, nil
}

func (cfg config) request(wl workload, mode, engine string, shards int) service.DiagnoseRequest {
	return service.DiagnoseRequest{
		Bench:  wl.bench,
		Tests:  wl.tests,
		K:      cfg.k,
		Shards: shards,
		Engine: engine,
		Mode:   mode,
	}
}

// base is the single-choice request the smoke/compare paths use.
func (cfg config) base(wl workload, mode string) service.DiagnoseRequest {
	return cfg.request(wl, mode, cfg.engines[0], cfg.shards[0])
}

// fetchMetric scrapes one plain sample from /metrics.
func fetchMetric(base, name string) (int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
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

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// runLoad replays mixed multi-client traffic with zipf circuit
// popularity and reports throughput + latency quantiles.
func runLoad(cfg config) error {
	loads, err := prepare(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "workloads: %d circuits, %d tests each, k=%d, engines=%v, shards=%v\n",
		len(loads), cfg.tests, cfg.k, cfg.engines, cfg.shards)

	type sample struct {
		d       time.Duration
		mode    string
		hit     bool
		id      string
		name    string
		timings *trace.SpanJSON
	}
	samples := make([]sample, cfg.n)
	var idx struct {
		sync.Mutex
		next int
	}
	pick := func(r *rand.Rand, z *rand.Zipf) int {
		if z != nil {
			return int(z.Uint64())
		}
		return r.Intn(len(loads))
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, cfg.clients)
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
				idx.Lock()
				i := idx.next
				idx.next++
				idx.Unlock()
				if i >= cfg.n {
					return
				}
				wl := loads[pick(r, z)]
				mode := ""
				if cfg.coldFrac > 0 && r.Float64() < cfg.coldFrac {
					mode = "cold"
				}
				engine := cfg.engines[r.Intn(len(cfg.engines))]
				shards := cfg.shards[r.Intn(len(cfg.shards))]
				t0 := time.Now()
				resp, err := postJSON[service.DiagnoseResponse](cfg.addr, "/diagnose", cfg.request(wl, mode, engine, shards))
				if err != nil {
					errs <- err
					return
				}
				samples[i] = sample{
					d: time.Since(t0), mode: resp.Mode, hit: resp.PoolHit,
					id: resp.RequestID, name: wl.name, timings: resp.Timings,
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	elapsed := time.Since(start)

	byMode := map[string][]time.Duration{}
	hits := 0
	for _, s := range samples {
		byMode[s.mode] = append(byMode[s.mode], s.d)
		if s.hit {
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
		if v, err := fetchMetric(cfg.addr, name); err == nil {
			fmt.Fprintf(cfg.out, "  %s %d\n", name, v)
		}
	}
	if cfg.traceSample > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i].d > samples[j].d })
		n := cfg.traceSample
		if n > len(samples) {
			n = len(samples)
		}
		fmt.Fprintf(cfg.out, "slowest %d request(s):\n", n)
		for _, s := range samples[:n] {
			fmt.Fprintf(cfg.out, "  %s %s %s client-observed %v\n", s.id, s.name, s.mode, s.d.Round(time.Microsecond))
			if s.timings == nil {
				fmt.Fprintf(cfg.out, "    (no timings in response — old server?)\n")
				continue
			}
			printSpan(cfg.out, s.timings, 2)
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

// runSmoke drives one cold and one warm request and asserts the warm
// one hit the session pool with identical solutions — the CI gate.
func runSmoke(cfg config) error {
	cfg.circuits = cfg.circuits[:1]
	loads, err := prepare(cfg)
	if err != nil {
		return err
	}
	wl := loads[0]
	cold, err := postJSON[service.DiagnoseResponse](cfg.addr, "/diagnose", cfg.base(wl, ""))
	if err != nil {
		return err
	}
	if cold.PoolHit {
		return fmt.Errorf("smoke: first request unexpectedly hit the pool")
	}
	warm, err := postJSON[service.DiagnoseResponse](cfg.addr, "/diagnose", cfg.base(wl, ""))
	if err != nil {
		return err
	}
	if !warm.PoolHit {
		return fmt.Errorf("smoke: warm request missed the pool (mode=%s)", warm.Mode)
	}
	a, _ := json.Marshal(cold.Solutions)
	b, _ := json.Marshal(warm.Solutions)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("smoke: warm solutions diverged:\n cold %s\n warm %s", a, b)
	}
	hitsMetric, err := fetchMetric(cfg.addr, "diag_pool_hits_total")
	if err != nil {
		return err
	}
	if hitsMetric < 1 {
		return fmt.Errorf("smoke: /metrics reports %d pool hits, want >= 1", hitsMetric)
	}
	fmt.Fprintf(cfg.out, "smoke ok: %s cold %.1fms -> warm %.1fms (pool hit, %d solutions identical)\n",
		wl.name, cold.ElapsedMs, warm.ElapsedMs, len(warm.Solutions))
	return nil
}

// postJSONStatus is postJSON that surfaces the HTTP status instead of
// treating non-200 as a transport error — chaos runs expect shedding
// (429/503) and degraded answers and must count them, not die on them.
func postJSONStatus[T any](base, path string, body any) (int, T, error) {
	var out T
	b, err := json.Marshal(body)
	if err != nil {
		return 0, out, err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, out, err
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			return resp.StatusCode, out, fmt.Errorf("%s: decode: %w", path, err)
		}
	}
	return resp.StatusCode, out, nil
}

// localTruth computes the fault-free diagnosis for a workload in this
// process (no failpoints armed here), on the server's view of the
// circuit — the equivalence baseline for completed chaos responses.
func localTruth(wl workload, k int) (string, error) {
	c, err := circuit.ParseBench(wl.name, strings.NewReader(wl.bench))
	if err != nil {
		return "", err
	}
	tests := make(circuit.TestSet, len(wl.tests))
	for i, tj := range wl.tests {
		vec := make([]bool, len(tj.Vector))
		for j, ch := range tj.Vector {
			vec[j] = ch == '1'
		}
		tests[i] = circuit.Test{Vector: vec, Output: tj.Output, Want: tj.Want}
	}
	rep, err := core.Diagnose(context.Background(), core.Request{
		Engine: "bsat", Circuit: c, Tests: tests, K: k,
	})
	if err != nil {
		return "", err
	}
	if !rep.Complete {
		return "", fmt.Errorf("%s: local baseline incomplete", wl.name)
	}
	sols := make([][]int, len(rep.Solutions))
	for i, s := range rep.Solutions {
		sols[i] = s.Gates
	}
	b, err := json.Marshal(sols)
	return string(b), err
}

// runChaos is the fault-tolerance gate: replay mixed traffic against a
// server started with -failpoints and assert (1) zero 5xx — every
// injected panic was recovered, (2) every complete=true response is
// byte-identical to the local fault-free baseline, (3) the failpoints
// actually fired (visible in the fault counters), and (4) the server
// still reports live afterwards.
func runChaos(cfg config) error {
	loads, err := prepare(cfg)
	if err != nil {
		return err
	}
	want := make([]string, len(loads))
	for i, wl := range loads {
		if want[i], err = localTruth(wl, cfg.k); err != nil {
			return err
		}
	}
	fmt.Fprintf(cfg.out, "chaos: %d circuits, %d requests, %d clients, shards=%v\n",
		len(loads), cfg.n, cfg.clients, cfg.shards)

	var mu sync.Mutex
	codes := map[int]int{}
	completed, degraded := 0, 0
	undumped := 0 // degraded responses missing their flight-recorder dump
	var mismatches []string
	var transport []error

	var idx struct {
		sync.Mutex
		next int
	}
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.seed + int64(c)*7919))
			for {
				idx.Lock()
				i := idx.next
				idx.next++
				idx.Unlock()
				if i >= cfg.n {
					return
				}
				li := r.Intn(len(loads))
				wl := loads[li]
				mode := ""
				if cfg.coldFrac > 0 && r.Float64() < cfg.coldFrac {
					mode = "cold"
				}
				shards := cfg.shards[r.Intn(len(cfg.shards))]
				req := cfg.request(wl, mode, cfg.engines[r.Intn(len(cfg.engines))], shards)
				// A minimal sample stage pushes sharded work onto the
				// cube workers, where the cnf/cube failpoints live.
				req.SampleCap = 1
				code, resp, err := postJSONStatus[service.DiagnoseResponse](
					cfg.addr, "/diagnose", req)
				mu.Lock()
				switch {
				case err != nil:
					transport = append(transport, err)
				case code != http.StatusOK:
					codes[code]++
				case resp.Complete:
					completed++
					codes[code]++
					if got, _ := json.Marshal(resp.Solutions); string(got) != want[li] {
						mismatches = append(mismatches,
							fmt.Sprintf("%s shards=%d: %s != %s", wl.name, shards, got, want[li]))
					}
				default:
					degraded++
					codes[code]++
					// The degradation contract includes the black box: an
					// incomplete answer must explain itself.
					if len(resp.FlightRecorder) == 0 {
						undumped++
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	fmt.Fprintf(cfg.out, "  status codes: %v, complete %d, degraded %d\n", codes, completed, degraded)
	faults := int64(0)
	for _, name := range []string{
		"diag_panics_recovered", "diag_cube_retries", "diag_degraded_responses",
		"diag_request_retries_total", "diag_sched_queue_timeouts_total",
	} {
		if v, err := fetchMetric(cfg.addr, name); err == nil {
			fmt.Fprintf(cfg.out, "  %s %d\n", name, v)
			faults += v
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
		return fmt.Errorf("chaos: %d completed responses diverged from the fault-free baseline, first: %s",
			len(mismatches), mismatches[0])
	}
	if faults == 0 {
		return fmt.Errorf("chaos: no fault observed in the counters — are the server's failpoints armed?")
	}
	if _, err := http.Get(cfg.addr + "/healthz"); err != nil {
		return fmt.Errorf("chaos: server unreachable after run: %w", err)
	}
	fmt.Fprintf(cfg.out, "chaos ok: %d/%d complete and byte-identical, %d degraded, 0 unrecovered panics\n",
		completed, cfg.n, degraded)
	return nil
}

// restartState is the baseline the -restart prime phase writes and the
// verify phase replays: each session's circuit and live test-set after
// the edit, as exact wire payloads, plus the solutions the pre-crash
// server produced for them. Carrying the payloads (not just the
// workload seed) makes verify independent of generator drift.
type restartState struct {
	K         int               `json:"k"`
	Workloads []restartWorkload `json:"workloads"`
}

type restartWorkload struct {
	Name      string             `json:"name"`
	Bench     string             `json:"bench"`
	Tests     []service.TestJSON `json:"tests"`
	Solutions json.RawMessage    `json:"solutions"`
}

// waitReady polls /healthz until the server reports ready — during a
// boot replay it answers 503 "warming", which this deliberately sits
// through.
func waitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return nil
			}
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

func runRestart(cfg config, phase, statePath string) error {
	switch phase {
	case "prime":
		return runRestartPrime(cfg, statePath)
	case "verify":
		return runRestartVerify(cfg, statePath)
	default:
		return fmt.Errorf("-restart %q: want prime or verify", phase)
	}
}

// runRestartPrime warms one session per circuit on a journaling server,
// retracts the first test from each (so an edit crosses the crash) and
// records the post-edit solution baseline. The caller then kills the
// server (SIGKILL — no drain, no seal) and restarts it on the same
// journal before running the verify phase.
func runRestartPrime(cfg config, statePath string) error {
	if cfg.tests < 2 {
		return fmt.Errorf("-restart prime needs -tests >= 2 (one is retracted)")
	}
	loads, err := prepare(cfg)
	if err != nil {
		return err
	}
	st := restartState{K: cfg.k}
	for _, wl := range loads {
		resp, err := postJSON[service.DiagnoseResponse](cfg.addr, "/diagnose", cfg.base(wl, ""))
		if err != nil {
			return err
		}
		edit, err := postJSON[service.DiagnoseResponse](cfg.addr, "/sessions/"+resp.Session+"/tests",
			service.SessionTestsRequest{Remove: []int{0}})
		if err != nil {
			return err
		}
		if !resp.Complete || !edit.Complete {
			return fmt.Errorf("prime: %s did not complete", wl.name)
		}
		sols, err := json.Marshal(edit.Solutions)
		if err != nil {
			return err
		}
		st.Workloads = append(st.Workloads, restartWorkload{
			Name: wl.name, Bench: wl.bench, Tests: wl.tests[1:], Solutions: sols,
		})
	}
	b, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(statePath, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "restart prime ok: %d sessions warmed, edited and journaled, baseline in %s\n",
		len(st.Workloads), statePath)
	return nil
}

// runRestartVerify is the post-crash half of the gate: wait out the
// boot replay, find each replayed session by its key and send it a
// no-op edit — it must re-run the journaled post-edit test-set with the
// journaled k — then re-issue the live test-set as a full request. Both
// must land warm, with zero re-encoded test copies and solutions
// byte-identical to the pre-crash baseline and to a locally computed
// diagnosis. A cold rebuild or a single diverging byte fails the gate.
func runRestartVerify(cfg config, statePath string) error {
	raw, err := os.ReadFile(statePath)
	if err != nil {
		return err
	}
	var st restartState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("%s: %w", statePath, err)
	}
	if len(st.Workloads) == 0 {
		return fmt.Errorf("%s: no workloads — run -restart prime first", statePath)
	}
	if err := waitReady(cfg.addr, time.Minute); err != nil {
		return err
	}
	hits0, _ := fetchMetric(cfg.addr, "diag_pool_hits_total") // 0 on a fresh process
	ids, err := sessionIDs(cfg.addr)
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
		edit, err := postJSON[service.DiagnoseResponse](cfg.addr, "/sessions/"+id+"/tests", service.SessionTestsRequest{})
		if err != nil {
			return err
		}
		if edit.Tests != len(wl.Tests) {
			return fmt.Errorf("verify: %s replayed %d live tests, want the post-edit %d", wl.Name, edit.Tests, len(wl.Tests))
		}
		resp, err := postJSON[service.DiagnoseResponse](cfg.addr, "/diagnose", service.DiagnoseRequest{
			Bench: wl.Bench, Tests: wl.Tests, K: st.K,
		})
		if err != nil {
			return err
		}
		if !resp.PoolHit {
			return fmt.Errorf("verify: %s rebuilt cold — replay did not restore the session", wl.Name)
		}
		// The state file is written indented (it is a debugging artifact),
		// which re-indents the embedded solutions; compact before the
		// byte-level comparison.
		var before bytes.Buffer
		if err := json.Compact(&before, wl.Solutions); err != nil {
			return fmt.Errorf("%s: baseline solutions: %w", wl.Name, err)
		}
		want, err := localTruth(workload{name: wl.Name, bench: wl.Bench, tests: wl.Tests}, st.K)
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
			got, err := json.Marshal(r.resp.Solutions)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, before.Bytes()) {
				return fmt.Errorf("verify: %s %s solutions diverged from pre-crash baseline:\n before %s\n after  %s",
					wl.Name, r.what, before.Bytes(), got)
			}
			if string(got) != want {
				return fmt.Errorf("verify: %s %s solutions diverged from local baseline:\n local %s\n after %s",
					wl.Name, r.what, want, got)
			}
		}
	}
	hits1, err := fetchMetric(cfg.addr, "diag_pool_hits_total")
	if err != nil {
		return err
	}
	if hits1-hits0 < int64(len(st.Workloads)) {
		return fmt.Errorf("verify: warm hit rate too low: %d hits for %d replayed requests",
			hits1-hits0, len(st.Workloads))
	}
	replayed, err := fetchMetric(cfg.addr, "diag_replay_sessions_total")
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

// sessionIDs lists the server's warm sessions as key -> session id.
func sessionIDs(base string) (map[string]string, error) {
	resp, err := http.Get(base + "/sessions")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var infos []service.EntryInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, fmt.Errorf("/sessions: decode: %w", err)
	}
	ids := make(map[string]string, len(infos))
	for _, info := range infos {
		ids[info.Key] = info.ID
	}
	return ids, nil
}

// runCompare measures the amortization the warm-session design exists
// for: cold (pool bypass) vs warm (session reuse) vs incremental (test
// edit on the live session) latency on one workload.
func runCompare(cfg config) error {
	cfg.circuits = cfg.circuits[:1]
	loads, err := prepare(cfg)
	if err != nil {
		return err
	}
	wl := loads[0]
	fmt.Fprintf(cfg.out, "compare: %s, %d tests, k=%d, shards=%d, %d reps\n",
		wl.name, cfg.tests, cfg.k, cfg.shards[0], cfg.reps)

	measure := func(fn func() error) (time.Duration, error) {
		best := time.Duration(0)
		for r := 0; r < cfg.reps; r++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			d := time.Since(t0)
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}

	cold, err := measure(func() error {
		_, err := postJSON[service.DiagnoseResponse](cfg.addr, "/diagnose", cfg.base(wl, "cold"))
		return err
	})
	if err != nil {
		return err
	}

	// Warm-start once (pool miss builds the session), then measure hits.
	first, err := postJSON[service.DiagnoseResponse](cfg.addr, "/diagnose", cfg.base(wl, ""))
	if err != nil {
		return err
	}
	warm, err := measure(func() error {
		resp, err := postJSON[service.DiagnoseResponse](cfg.addr, "/diagnose", cfg.base(wl, ""))
		if err != nil {
			return err
		}
		if !resp.PoolHit {
			return fmt.Errorf("warm request missed the pool")
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Incremental: alternately add and retract the spare test on the
	// live session — the "edited test-set" re-diagnosis.
	sid := first.Session
	addSpare := true
	incr, err := measure(func() error {
		var req service.SessionTestsRequest
		if addSpare {
			req.Add = wl.extra
		} else {
			req.Remove = []int{cfg.tests} // the spare sits past the base tests
		}
		addSpare = !addSpare
		_, err := postJSON[service.DiagnoseResponse](cfg.addr, "/sessions/"+sid+"/tests", req)
		return err
	})
	if err != nil {
		return err
	}

	speedW := float64(cold) / float64(warm)
	speedI := float64(cold) / float64(incr)
	fmt.Fprintf(cfg.out, "  cold        %v\n  warm        %v  (%.2fx)\n  incremental %v  (%.2fx)\n",
		cold.Round(time.Microsecond), warm.Round(time.Microsecond), speedW,
		incr.Round(time.Microsecond), speedI)
	if cfg.minSpeed > 0 && speedW < cfg.minSpeed {
		return fmt.Errorf("warm speedup %.2fx below required %.2fx", speedW, cfg.minSpeed)
	}
	return nil
}
