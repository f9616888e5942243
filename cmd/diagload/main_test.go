package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/journal"
	"repro/internal/service"
)

func testConfig(base string) config {
	return config{
		addr:     strings.TrimRight(base, "/"),
		circuits: []string{"s298x"},
		inject:   1,
		seed:     3,
		tests:    4,
		k:        1,
		shards:   []int{1},
		engines:  []string{"bsat"},
		n:        6,
		clients:  2,
		zipf:     1.2,
		reps:     2,
		out:      &strings.Builder{},
	}
}

func newServer() *service.Server {
	return service.NewServer(service.Options{
		Scheduler: service.SchedulerOptions{Workers: 2, Queue: 16},
	})
}

func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer().Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestSmokeAgainstInProcessServer: the smoke scenario (a pool miss, then
// cold, warm and incremental requests that all answer alike) against a
// real service instance, and its cold/warm/incremental report.
func TestSmokeAgainstInProcessServer(t *testing.T) {
	ts := newBackend(t)
	cfg := testConfig(ts.URL)
	var sb strings.Builder
	cfg.out = &sb
	if err := runSmoke(cfg); err != nil {
		t.Fatal(err)
	}
	report := sb.String()
	for _, want := range []string{"cold", "warm", "incremental", "x)", "smoke ok"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestLoadAgainstInProcessServer: the mixed-traffic path end to end,
// including the /metrics scrape.
func TestLoadAgainstInProcessServer(t *testing.T) {
	ts := newBackend(t)
	cfg := testConfig(ts.URL)
	cfg.circuits = []string{"s298x", "s400x"}
	cfg.coldFrac = 0.3
	cfg.engines = []string{"bsat", "cegar"}
	cfg.shards = []int{1, 2}
	cfg.traceSample = 1
	var sb strings.Builder
	cfg.out = &sb
	if err := runLoad(cfg); err != nil {
		t.Fatal(err)
	}
	report := sb.String()
	for _, want := range []string{"req/s", "p50=", "diag_pool_hits_total", "slowest 1 request"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestChaosAgainstInProcessServer: the chaos scenario passes against a
// server whose failpoints fire (two deterministic request errors plus
// cube panics on the sharded requests). With the same faults it fails
// when the server stops reporting live afterwards, and with failpoints
// off it fails with "no fault observed". Not parallel: failpoints are
// process-global.
func TestChaosAgainstInProcessServer(t *testing.T) {
	arm := func() {
		t.Helper()
		if err := failpoint.Enable("service/diagnose=error(1)x2;cnf/cube=panic(0.3)x2", 7); err != nil {
			t.Fatal(err)
		}
	}
	arm()
	t.Cleanup(failpoint.Disable)
	cfg := testConfig(newBackend(t).URL)
	cfg.circuits = []string{"s298x", "s400x"}
	cfg.shards = []int{1, 2}
	cfg.n = 12
	var sb strings.Builder
	cfg.out = &sb
	if err := runChaos(cfg); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "chaos ok") {
		t.Fatalf("report: %s", sb.String())
	}

	arm()
	cfg.addr = tampered(t, newServer().Handler(), func(path string, code int, body []byte) (int, []byte) {
		if path == "/livez" {
			return http.StatusServiceUnavailable, body
		}
		return code, body
	})
	if err := runChaos(cfg); err == nil || !strings.Contains(err.Error(), "not live after the run: status 503") {
		t.Fatalf("chaos against a server that is not live: %v, want a liveness failure", err)
	}

	failpoint.Disable()
	cfg.addr = newBackend(t).URL
	if err := runChaos(cfg); err == nil || !strings.Contains(err.Error(), "no fault observed") {
		t.Fatalf("chaos without failpoints: %v, want a no-fault-observed failure", err)
	}
}

// TestRestartAgainstInProcessServer: the restart scenarios end to end on
// a journaling server — prime (diagnose plus one retract edit per
// session), crash without drain or seal, replay on the same journal,
// and verify finds every session warm with the post-edit test-set.
func TestRestartAgainstInProcessServer(t *testing.T) {
	srv, st, cfg := primedAndRestarted(t)
	replayed := make(chan struct{})
	go func() {
		defer close(replayed)
		srv.Replay(st, 2)
	}()
	var sb strings.Builder
	cfg.out = &sb
	err := runRestartVerify(cfg)
	<-replayed
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "restart verify ok: 2/2") {
		t.Fatalf("verify report: %s", sb.String())
	}
}

// primedAndRestarted runs restart-prime against a journaling server and
// crashes it. It returns a second server on the same journal with its
// replay pending, the folded journal, and the config that primed the
// first, pointed at the second.
func primedAndRestarted(t *testing.T) (*service.Server, *journal.State, config) {
	t.Helper()
	dir := t.TempDir()
	journaled := func(pending bool) (*service.Server, *httptest.Server, *journal.Writer, *journal.State) {
		jw, st, err := journal.Open(journal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(jw.Close)
		srv := service.NewServer(service.Options{
			Scheduler:     service.SchedulerOptions{Workers: 2, Queue: 16},
			Journal:       jw,
			ReplayPending: pending,
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts, jw, st
	}
	_, tsA, jwA, _ := journaled(false)
	cfg := testConfig(tsA.URL)
	cfg.circuits = []string{"s298x", "s400x"}
	cfg.state = filepath.Join(t.TempDir(), "st.json")
	if err := runRestartPrime(cfg); err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	jwA.Close()
	srvB, tsB, _, st := journaled(true)
	cfg.addr = tsB.URL
	return srvB, st, cfg
}

// tampered serves h through a proxy that hands every response to edit
// (request path, status, body) before the client sees it: a stand-in
// for a server that breaks one of the promises a scenario checks.
func tampered(t *testing.T, h http.Handler, edit func(path string, code int, body []byte) (int, []byte)) string {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		code, body := rec.Code, rec.Body.Bytes()
		if edit != nil {
			code, body = edit(r.URL.Path, code, body)
		}
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.WriteHeader(code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// setFields overwrites top-level fields of a JSON object body.
func setFields(t *testing.T, body []byte, fields map[string]any) []byte {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Errorf("tamper: %v: %s", err, body)
		return body
	}
	for k, v := range fields {
		if v == nil {
			delete(m, k)
		} else {
			m[k] = v
		}
	}
	out, _ := json.Marshal(m)
	return out
}

// onJSON edits the bodies of 200 responses to paths matching match.
func onJSON(t *testing.T, match func(path string) bool, fields func() map[string]any) func(string, int, []byte) (int, []byte) {
	return func(path string, code int, body []byte) (int, []byte) {
		if code == http.StatusOK && match(path) {
			if f := fields(); f != nil {
				body = setFields(t, body, f)
			}
		}
		return code, body
	}
}

// onMetric rewrites a /metrics sample's value.
func onMetric(name, value string) func(string, int, []byte) (int, []byte) {
	re := regexp.MustCompile(`(?m)^` + name + ` \d+$`)
	return func(path string, code int, body []byte) (int, []byte) {
		if path == "/metrics" {
			body = re.ReplaceAll(body, []byte(name+" "+value))
		}
		return code, body
	}
}

func both(a, b func(string, int, []byte) (int, []byte)) func(string, int, []byte) (int, []byte) {
	return func(path string, code int, body []byte) (int, []byte) {
		code, body = a(path, code, body)
		return b(path, code, body)
	}
}

func isDiagnose(path string) bool { return path == "/diagnose" }
func isEdit(path string) bool     { return strings.HasSuffix(path, "/tests") }

// always returns the same field edit for every matching response.
func always(f map[string]any) func() map[string]any { return func() map[string]any { return f } }

// nth edits only the n-th matching response (1-based).
func nth(n int64, f map[string]any) func() map[string]any {
	var seen atomic.Int64
	return func() map[string]any {
		if seen.Add(1) == n {
			return f
		}
		return nil
	}
}

// TestScenariosCatchBrokenPromises: each assertion of the smoke, chaos
// and restart-verify scenarios fails its scenario when a proxy breaks
// the promise it checks, and only that (one case per assertion; the
// unbroken cases pass). Removing an assertion fails its case.
func TestScenariosCatchBrokenPromises(t *testing.T) {
	wrong := [][]int{{-1}}
	panicked := onMetric("diag_panics_recovered", "1") // stands in for armed failpoints
	var shed atomic.Int64
	cases := []struct {
		name     string
		scenario func(config) error
		tamper   func(string, int, []byte) (int, []byte)
		minSpeed float64
		want     string // "" = the scenario must pass
	}{
		{"smoke/unbroken", runSmoke, nil, 0, ""},
		{"smoke/first request hits", runSmoke, onJSON(t, isDiagnose, nth(1, map[string]any{"poolHit": true})), 0, "first request unexpectedly hit the pool"},
		{"smoke/warm request misses", runSmoke, onJSON(t, isDiagnose, always(map[string]any{"poolHit": false})), 0, "warm request 1 missed the pool"},
		{"smoke/cold answer differs", runSmoke, onJSON(t, isDiagnose, nth(2, map[string]any{"solutions": wrong})), 0, "cold request 1: solutions diverged"},
		{"smoke/warm answer differs", runSmoke, onJSON(t, isDiagnose, nth(5, map[string]any{"solutions": wrong})), 0, "warm request 2: solutions diverged"},
		{"smoke/retract edit differs", runSmoke, onJSON(t, isEdit, nth(2, map[string]any{"solutions": wrong})), 0, "incremental request 2: solutions diverged"},
		{"smoke/no hits counted", runSmoke, onMetric("diag_pool_hits_total", "1"), 0, "/metrics reports 1 pool hits, want >= 2"},
		{"smoke/too slow", runSmoke, nil, 1e9, "below required"},

		{"chaos/unbroken", runChaos, panicked, 0, ""},
		{"chaos/503 is shedding", runChaos, both(panicked, func(path string, code int, body []byte) (int, []byte) {
			if isDiagnose(path) && shed.Add(1) == 2 {
				return http.StatusServiceUnavailable, []byte("shed\n")
			}
			return code, body
		}), 0, ""},
		{"chaos/500 escapes", runChaos, func(path string, code int, body []byte) (int, []byte) {
			if isDiagnose(path) {
				return http.StatusInternalServerError, []byte("boom\n")
			}
			return code, body
		}, 0, "status 500 — a panic escaped"},
		{"chaos/nothing completes", runChaos, onJSON(t, isDiagnose, always(map[string]any{
			"complete": false, "flightRecorder": []map[string]any{{"kind": "budget-exit"}},
		})), 0, "no request completed"},
		{"chaos/degraded without recorder", runChaos, onJSON(t, isDiagnose, nth(1, map[string]any{
			"complete": false, "flightRecorder": nil,
		})), 0, "1/1 degraded responses carried no flight-recorder dump"},
		{"chaos/complete answer differs", runChaos, onJSON(t, isDiagnose, nth(3, map[string]any{"solutions": wrong})), 0, "diverged from the fault-free baseline"},
		{"chaos/no fault", runChaos, nil, 0, "no fault observed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tampered(t, newServer().Handler(), tc.tamper))
			cfg.minSpeed = tc.minSpeed
			if strings.HasPrefix(tc.name, "chaos/") {
				cfg.circuits = []string{"s298x", "s400x"}
				cfg.shards = []int{1, 2}
			}
			checkScenario(t, tc.scenario(cfg), tc.want)
		})
	}

	// restart-verify against one primed and replayed server.
	srv, journaled, cfg := primedAndRestarted(t)
	srv.Replay(journaled, 2)
	var st restartState
	raw, err := os.ReadFile(cfg.state)
	if err != nil || json.Unmarshal(raw, &st) != nil {
		t.Fatalf("state file: %v", err)
	}
	for i := range st.Workloads {
		st.Workloads[i].Solutions = wrong
	}
	wrongState := filepath.Join(t.TempDir(), "wrong.json")
	if raw, err = json.Marshal(st); err != nil || os.WriteFile(wrongState, raw, 0o644) != nil {
		t.Fatal("cannot write the altered state file")
	}
	answers := func(path string) bool { return isDiagnose(path) || isEdit(path) }
	verify := []struct {
		name   string
		tamper func(string, int, []byte) (int, []byte)
		state  string
		want   string
	}{
		{"unbroken", nil, cfg.state, ""},
		{"live test count", onJSON(t, isEdit, always(map[string]any{"tests": 99})), cfg.state, "replayed 99 live tests"},
		{"cold rebuild", onJSON(t, isDiagnose, always(map[string]any{"poolHit": false})), cfg.state, "rebuilt cold"},
		{"copies encoded", onJSON(t, isEdit, always(map[string]any{"newCopies": 1})), cfg.state, "re-encoded 1 test copies"},
		{"baseline differs", onJSON(t, isEdit, always(map[string]any{"solutions": wrong})), cfg.state, "vs the pre-crash baseline: solutions diverged"},
		{"local diagnosis differs", onJSON(t, answers, always(map[string]any{"solutions": wrong})), wrongState, "vs the local diagnosis: solutions diverged"},
		{"no hits counted", onMetric("diag_pool_hits_total", "0"), cfg.state, "warm hit rate too low"},
		{"nothing replayed", onMetric("diag_replay_sessions_total", "0"), cfg.state, "diag_replay_sessions_total=0"},
	}
	for _, tc := range verify {
		t.Run("restart-verify/"+tc.name, func(t *testing.T) {
			c := cfg
			c.addr, c.state, c.out = tampered(t, srv.Handler(), tc.tamper), tc.state, &strings.Builder{}
			checkScenario(t, runRestartVerify(c), tc.want)
		})
	}
}

func checkScenario(t *testing.T, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Fatalf("unbroken server failed the scenario: %v", err)
	case want != "" && err == nil:
		t.Fatalf("scenario passed, want a failure with %q", want)
	case want != "" && !strings.Contains(err.Error(), want):
		t.Fatalf("scenario failed with %v, want %q", err, want)
	}
}

// TestUsageErrors: flag values no scenario can run with exit with status
// 2 and a usage error instead of panicking, running the wrong scenario
// or reporting an empty run. The test re-executes its own binary as
// diagload with the flags under test.
func TestUsageErrors(t *testing.T) {
	if args := os.Getenv("DIAGLOAD_TEST_ARGS"); args != "" {
		os.Args = append([]string{"diagload"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cases := []struct{ args, want string }{
		{"-circuits=", "diagload: -circuits: need at least one circuit"},
		{"-scenario smoke -circuits=", "diagload: -circuits: need at least one circuit"},
		{"-scenario smoke -circuits=,", "diagload: -circuits: need at least one circuit"},
		{"-scenario chaos -circuits=", "diagload: -circuits: need at least one circuit"},
		{"-scenario restart-prime -circuits=", "diagload: -circuits: need at least one circuit"},
		{"-c 0", "diagload: -c: need at least one client, got 0"},
		{"-scenario chaos -c 0", "diagload: -c: need at least one client, got 0"},
		{"-n 0", "diagload: -n: need at least one request, got 0"},
		{"-shards 0", `diagload: -shards: bad count "0"`},
		{"-scenario chaos -shards 1,x", `diagload: -shards: bad count "x"`},
		{"-scenario bogus", `diagload: -scenario: unknown scenario "bogus"`},
		{"-scenario restart-prime -tests 1", "diagload: -tests: restart-prime retracts one test, need at least 2, got 1"},
		{"-scenario smoke -reps 0", "diagload: -reps: need at least one repetition, got 0"},
		{"-tests 0", "diagload: -tests: need at least one test, got 0"},
		{"-smoke", "flag provided but not defined: -smoke"},
		{"-restart verify", "flag provided but not defined: -restart"},
	}
	// Port 1 refuses connections and the state file lives in a scratch
	// directory: a run that got past the flag checks fails differently,
	// never hangs and leaves nothing behind.
	base := "-addr http://127.0.0.1:1 -state " + filepath.Join(t.TempDir(), "st.json") + " "
	for _, tc := range cases {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrors$")
		cmd.Env = append(os.Environ(), "DIAGLOAD_TEST_ARGS="+base+tc.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}
