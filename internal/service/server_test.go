package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/tgen"
)

func newTestServer(t *testing.T, workers int) (*service.Server, *httptest.Server) {
	t.Helper()
	srv := service.NewServer(service.Options{
		Scheduler: service.SchedulerOptions{Workers: workers, Queue: 64},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post[T any](t *testing.T, url string, body any) (int, T) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode, out
}

func diagnose(t *testing.T, base string, req service.DiagnoseRequest) service.DiagnoseResponse {
	t.Helper()
	code, resp := post[service.DiagnoseResponse](t, base+"/diagnose", req)
	if code != http.StatusOK {
		t.Fatalf("POST /diagnose -> %d", code)
	}
	return resp
}

// truth computes the monolithic ground truth the server must match,
// on the server's view of the circuit (the parsed bench text).
func truth(t *testing.T, bench string, tests circuit.TestSet, k, shards int) [][]int {
	t.Helper()
	parsed, err := circuit.ParseBench("truth", strings.NewReader(bench))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Diagnose(context.Background(), core.Request{
		Engine: "bsat", Circuit: parsed, Tests: tests, K: k, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatal("ground truth incomplete without budgets")
	}
	sols := make([][]int, len(rep.Solutions))
	for i, s := range rep.Solutions {
		sols[i] = s.Gates
	}
	return sols
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServerEquivalenceProperty is the end-to-end acceptance property:
// for a stream of random circuit/test-set requests — any mix of cold,
// warm and incremental serving, any worker-pool size, sharded or not —
// the server's solution lists are byte-identical to monolithic
// core.Diagnose on the same inputs.
func TestServerEquivalenceProperty(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("workers=%d/shards=%d", workers, shards), func(t *testing.T) {
				_, ts := newTestServer(t, workers)
				for seed := int64(1); seed <= 4; seed++ {
					c, tests := scenario(t, seed*10, 6)
					bench := benchText(t, c)
					wire := testJSON(tests)
					want := mustJSON(t, truth(t, bench, tests, 2, 1))

					// Cold (pool bypass).
					cold := diagnose(t, ts.URL, service.DiagnoseRequest{
						Bench: bench, Tests: wire, K: 2, Shards: shards, Mode: "cold",
					})
					if got := mustJSON(t, cold.Solutions); got != want {
						t.Fatalf("seed %d cold: %s != %s", seed, got, want)
					}
					if !cold.Complete || cold.PoolHit {
						t.Fatalf("seed %d cold: complete=%v hit=%v", seed, cold.Complete, cold.PoolHit)
					}

					// Warm start (pool miss) then warm hit.
					first := diagnose(t, ts.URL, service.DiagnoseRequest{
						Bench: bench, Tests: wire, K: 2, Shards: shards,
					})
					if got := mustJSON(t, first.Solutions); got != want {
						t.Fatalf("seed %d warm-start: %s != %s", seed, got, want)
					}
					if first.PoolHit || first.Session == "" {
						t.Fatalf("seed %d warm-start: hit=%v session=%q", seed, first.PoolHit, first.Session)
					}
					second := diagnose(t, ts.URL, service.DiagnoseRequest{
						Bench: bench, Tests: wire, K: 2, Shards: shards,
					})
					if got := mustJSON(t, second.Solutions); got != want {
						t.Fatalf("seed %d warm: %s != %s", seed, got, want)
					}
					if !second.PoolHit || second.Mode != "warm" || second.NewCopies != 0 {
						t.Fatalf("seed %d warm: hit=%v mode=%q new=%d", seed, second.PoolHit, second.Mode, second.NewCopies)
					}

					// Wire compatibility: a body still carrying the retired
					// search-configuration and enumeration-mode keys is
					// accepted (unknown keys are ignored) and answered alike.
					legacy := strings.TrimSuffix(mustJSON(t, service.DiagnoseRequest{
						Bench: bench, Tests: wire, K: 2, Shards: shards,
					}), "}") + `,"solver":"gen2","enum":"projected"}`
					code, old := post[service.DiagnoseResponse](t, ts.URL+"/diagnose", json.RawMessage(legacy))
					if code != http.StatusOK {
						t.Fatalf("seed %d retired keys -> %d", seed, code)
					}
					if got := mustJSON(t, old.Solutions); got != want {
						t.Fatalf("seed %d retired keys: %s != %s", seed, got, want)
					}
					// The retired fault-model knobs (cone restriction,
					// cardinality encoding — even a name that was never
					// valid — and force-zero) land on the same warm session:
					// every copy is cone-restricted over one totalizer, so
					// no knob splits the pool key any more.
					for _, knob := range []string{
						`"coneOnly":true`, `"coneOnly":false`,
						`"encoding":"seqcounter"`, `"encoding":"totalizer"`,
						`"encoding":"pairwise"`, `"encoding":"unary"`,
						`"forceZero":true`,
					} {
						legacy := strings.TrimSuffix(mustJSON(t, service.DiagnoseRequest{
							Bench: bench, Tests: wire, K: 2, Shards: shards,
						}), "}") + "," + knob + "}"
						code, old := post[service.DiagnoseResponse](t, ts.URL+"/diagnose", json.RawMessage(legacy))
						if code != http.StatusOK {
							t.Fatalf("seed %d %s -> %d", seed, knob, code)
						}
						if got := mustJSON(t, old.Solutions); got != want {
							t.Fatalf("seed %d %s: %s != %s", seed, knob, got, want)
						}
						if !old.PoolHit || old.Session != first.Session {
							t.Fatalf("seed %d %s: hit=%v session %q, want the shared %q", seed, knob, old.PoolHit, old.Session, first.Session)
						}
					}

					// Incremental: drop the first test, add it back.
					sid := first.Session
					code, inc := post[service.DiagnoseResponse](t, ts.URL+"/sessions/"+sid+"/tests",
						service.SessionTestsRequest{Remove: []int{0}, Shards: shards})
					if code != http.StatusOK {
						t.Fatalf("seed %d incremental remove -> %d", seed, code)
					}
					wantSub := mustJSON(t, truth(t, bench, tests[1:], 2, 1))
					if got := mustJSON(t, inc.Solutions); got != wantSub {
						t.Fatalf("seed %d incremental remove: %s != %s", seed, got, wantSub)
					}
					if inc.Mode != "incremental" || inc.Tests != len(tests)-1 {
						t.Fatalf("seed %d incremental: mode=%q tests=%d", seed, inc.Mode, inc.Tests)
					}
					code, inc2 := post[service.DiagnoseResponse](t, ts.URL+"/sessions/"+sid+"/tests",
						service.SessionTestsRequest{Add: wire[:1], Shards: shards})
					if code != http.StatusOK {
						t.Fatalf("seed %d incremental add -> %d", seed, code)
					}
					// Same test-set as the full run (order permuted —
					// the solution space is order-independent).
					if got := mustJSON(t, inc2.Solutions); got != want {
						t.Fatalf("seed %d incremental add: %s != %s", seed, got, want)
					}
					if inc2.NewCopies != 0 {
						t.Fatalf("seed %d: re-added test re-encoded (%d new copies)", seed, inc2.NewCopies)
					}
				}
			})
		}
	}
}

// TestServerConcurrentMixedClients hammers one server with concurrent
// cold/warm clients over two circuits and checks every response against
// the ground truth — the race-and-equivalence stress for the pool's
// serialization and the scheduler.
func TestServerConcurrentMixedClients(t *testing.T) {
	_, ts := newTestServer(t, 4)
	type workload struct {
		bench string
		wire  []service.TestJSON
		want  string
	}
	var loads []workload
	for seed := int64(1); seed <= 2; seed++ {
		c, tests := scenario(t, 100*seed, 5)
		bench := benchText(t, c)
		loads = append(loads, workload{
			bench: bench,
			wire:  testJSON(tests),
			want:  mustJSON(t, truth(t, bench, tests, 2, 1)),
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wl := loads[i%len(loads)]
			mode := ""
			if i%3 == 0 {
				mode = "cold"
			}
			resp := diagnose(t, ts.URL, service.DiagnoseRequest{
				Bench: wl.bench, Tests: wl.wire, K: 2, Mode: mode,
			})
			if got := mustJSON(t, resp.Solutions); got != wl.want {
				t.Errorf("client %d (%s): %s != %s", i, resp.Mode, got, wl.want)
			}
		}(i)
	}
	wg.Wait()
}

// TestServerMetricsAndHealth: the serving counters must be visible on
// /metrics (pool hit/miss/eviction, latency histograms, per-session SAT
// cost) and /healthz must respond.
func TestServerMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, 2)
	c, tests := scenario(t, 7, 4)
	req := service.DiagnoseRequest{Bench: benchText(t, c), Tests: testJSON(tests), K: 2}
	diagnose(t, ts.URL, req)
	r2 := diagnose(t, ts.URL, req)
	if !r2.PoolHit {
		t.Fatal("second identical request missed the pool")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"diag_pool_hits_total 1",
		"diag_pool_misses_total 1",
		"diag_pool_evictions_total 0",
		"diag_requests_total 2",
		`diag_request_seconds_count{mode="warm"} 1`,
		"diag_session_copies{session=",
		"diag_session_conflicts{session=",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	var health service.HealthJSON
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if !health.OK || health.Sessions != 1 || health.Workers != 2 {
		t.Fatalf("health %+v", health)
	}

	var sessions []service.EntryInfo
	sr, err := http.Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sr.Body).Decode(&sessions); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if len(sessions) != 1 || sessions[0].Uses != 2 {
		t.Fatalf("sessions %+v", sessions)
	}
}

// TestServerMetricsDuringColdBuilds scrapes /sessions and /metrics
// while cold session builds and ladder growth are in flight — the entry
// fields those endpoints read must be published under the pool lock
// (regression for a write-after-publish race in Acquire).
func TestServerMetricsDuringColdBuilds(t *testing.T) {
	_, ts := newTestServer(t, 4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			http.Get(ts.URL + "/sessions")
			r, err := http.Get(ts.URL + "/metrics")
			if err == nil {
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
			}
		}
	}()
	for seed := int64(1); seed <= 3; seed++ {
		c, tests := scenario(t, 200*seed, 4)
		bench := benchText(t, c)
		wire := testJSON(tests)
		// Built at K=1 (ladder width 2), so every following request
		// grows the ladder or queues behind one that did, concurrent
		// with the scrapers.
		diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: wire, K: 1})
		var cw sync.WaitGroup
		for i := 0; i < 4; i++ {
			cw.Add(1)
			go func(i int) {
				defer cw.Done()
				diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: wire, K: 2 + i})
			}(i)
		}
		cw.Wait()
	}
	close(stop)
	wg.Wait()
}

// TestServerWarmLadderGrowth: a k past the width a warm session was
// built with grows its ladder in place. A warm /diagnose at K=6 on a
// session built at K=1 and an incremental edit with k=6 both answer
// like core.Diagnose at K=6 and encode no copy.
func TestServerWarmLadderGrowth(t *testing.T) {
	srv, ts := newTestServer(t, 2)
	maxK := func(id string) int {
		for _, info := range srv.Pool().Snapshot() {
			if info.ID == id {
				return info.MaxK
			}
		}
		t.Fatalf("session %s not pooled", id)
		return 0
	}

	t.Run("diagnose", func(t *testing.T) {
		c, tests := scenario(t, 610, 4)
		bench := benchText(t, c)
		built := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: testJSON(tests), K: 1})
		warm := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: testJSON(tests), K: 6})
		if !warm.PoolHit || warm.Session != built.Session || warm.NewCopies != 0 {
			t.Fatalf("K=6 on a K=1 session: poolHit=%v session %s (built %s) newCopies=%d, want a warm hit encoding nothing",
				warm.PoolHit, warm.Session, built.Session, warm.NewCopies)
		}
		if got, want := mustJSON(t, warm.Solutions), mustJSON(t, truth(t, bench, tests, 6, 1)); got != want {
			t.Fatalf("warm K=6 differs from core.Diagnose:\n got %s\nwant %s", got, want)
		}
		if got := maxK(built.Session); got != 6 {
			t.Fatalf("grown session reports MaxK %d, want 6", got)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		// The sample stage stops after one solution at k=1 and the run
		// forks; the live session still grows to the request's K once,
		// before the stage, so the clones inherit the width.
		c, tests := scenario(t, 630, 4)
		bench := benchText(t, c)
		built := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: testJSON(tests), K: 1})
		warm := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: testJSON(tests), K: 4, Shards: 2, SampleCap: 1})
		if !warm.PoolHit || warm.Session != built.Session || warm.NewCopies != 0 {
			t.Fatalf("sharded K=4 on a K=1 session: poolHit=%v newCopies=%d, want a warm hit encoding nothing", warm.PoolHit, warm.NewCopies)
		}
		if got, want := mustJSON(t, warm.Solutions), mustJSON(t, truth(t, bench, tests, 4, 2)); got != want {
			t.Fatalf("sharded warm K=4 differs from core.Diagnose:\n got %s\nwant %s", got, want)
		}
		if got := maxK(built.Session); got != 4 {
			t.Fatalf("session after a sharded K=4 run reports MaxK %d, want 4", got)
		}
		// A capped run stops at its first solution, short of k=5; the
		// width is still the K served.
		capped := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: testJSON(tests), K: 5, MaxSolutions: 1})
		if len(capped.Solutions) != 1 || capped.NewCopies != 0 {
			t.Fatalf("capped K=5: %d solutions, %d new copies", len(capped.Solutions), capped.NewCopies)
		}
		if got := maxK(built.Session); got != 5 {
			t.Fatalf("session after a capped K=5 run reports MaxK %d, want 5", got)
		}
	})
	t.Run("edit", func(t *testing.T) {
		c, tests := scenario(t, 650, 4)
		bench := benchText(t, c)
		built := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: testJSON(tests), K: 1})
		code, edit := post[service.DiagnoseResponse](t, ts.URL+"/sessions/"+built.Session+"/tests", service.SessionTestsRequest{K: 6})
		if code != http.StatusOK {
			t.Fatalf("incremental k=6 on a K=1 session -> %d, want 200", code)
		}
		if edit.NewCopies != 0 {
			t.Fatalf("incremental k=6 encoded %d copies", edit.NewCopies)
		}
		if got, want := mustJSON(t, edit.Solutions), mustJSON(t, truth(t, bench, tests, 6, 1)); got != want {
			t.Fatalf("incremental k=6 differs from core.Diagnose:\n got %s\nwant %s", got, want)
		}
	})
}

// TestServerScenarioRoundtrip: the /scenario convenience endpoint must
// produce a payload /diagnose accepts, with non-empty solutions.
func TestServerScenarioRoundtrip(t *testing.T) {
	_, ts := newTestServer(t, 2)
	resp, err := http.Get(ts.URL + "/scenario?circuit=s298x&inject=1&seed=3&tests=6")
	if err != nil {
		t.Fatal(err)
	}
	var sc service.ScenarioJSON
	if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sc.Bench == "" || len(sc.Tests) == 0 {
		t.Fatalf("scenario %+v", sc)
	}
	out := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: sc.Bench, Tests: sc.Tests, K: sc.K})
	if len(out.Solutions) == 0 || !out.Complete {
		t.Fatalf("scenario diagnosis: %d solutions complete=%v", len(out.Solutions), out.Complete)
	}
}

// TestServerErrorPaths: malformed input and unknown sessions map to the
// right status codes and never wedge the scheduler; edge cases that are
// valid input are served.
func TestServerErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, 1)
	c, tests := scenario(t, 5, 3)
	passing := append(circuit.TestSet(nil), tests...)
	for i := range passing {
		passing[i].Want = !passing[i].Want // what the faulty circuit computes
	}
	// An explicitly empty candidate list, which omitempty would drop from
	// a marshalled DiagnoseRequest.
	noCandidates := func(engine, mode string) map[string]any {
		return map[string]any{"bench": benchText(t, c), "tests": testJSON(passing),
			"engine": engine, "mode": mode, "candidates": []int{}}
	}

	cases := []struct {
		name string
		req  any
		code int
	}{
		{"no circuit", service.DiagnoseRequest{Tests: testJSON(tests)}, http.StatusBadRequest},
		{"no tests", service.DiagnoseRequest{Bench: benchText(t, c)}, http.StatusBadRequest},
		{"bad vector", service.DiagnoseRequest{Bench: benchText(t, c),
			Tests: []service.TestJSON{{Vector: "xx", Output: 0}}}, http.StatusBadRequest},
		{"bad engine", service.DiagnoseRequest{Bench: benchText(t, c), Tests: testJSON(tests),
			Engine: "nope"}, http.StatusUnprocessableEntity},
		{"warm non-bsat", service.DiagnoseRequest{Bench: benchText(t, c), Tests: testJSON(tests),
			Engine: "cov", Mode: "warm"}, http.StatusBadRequest},
		{"negative candidate", service.DiagnoseRequest{Bench: benchText(t, c), Tests: testJSON(tests),
			Candidates: []int{-1}}, http.StatusBadRequest},
		{"candidate past the gates", service.DiagnoseRequest{Bench: benchText(t, c), Tests: testJSON(tests),
			Candidates: []int{len(c.Gates)}, Mode: "cold"}, http.StatusBadRequest},
		{"input candidate", service.DiagnoseRequest{Bench: benchText(t, c), Tests: testJSON(tests),
			Candidates: []int{c.Inputs[0]}, Mode: "warm"}, http.StatusBadRequest},
		{"input candidate, cold", service.DiagnoseRequest{Bench: benchText(t, c), Tests: testJSON(tests),
			Candidates: []int{c.InternalGates()[0], c.Inputs[0]}, Mode: "cold"}, http.StatusBadRequest},
		{"no candidates, cold bsat", noCandidates("bsat", "cold"), http.StatusOK},
		{"no candidates, warm bsat", noCandidates("bsat", "warm"), http.StatusOK},
		{"no candidates, cegar", noCandidates("cegar", "cold"), http.StatusOK},
	}
	for _, tc := range cases {
		code, _ := post[service.DiagnoseResponse](t, ts.URL+"/diagnose", tc.req)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.code)
		}
	}
	code, _ := post[service.DiagnoseResponse](t, ts.URL+"/sessions/zzz/tests", service.SessionTestsRequest{})
	if code != http.StatusNotFound {
		t.Errorf("unknown session: %d, want 404", code)
	}
	// The server still serves after the error burst.
	resp := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: benchText(t, c), Tests: testJSON(tests), K: 2})
	if !resp.Complete {
		t.Fatal("server wedged after error paths")
	}
	code, _ = post[service.DiagnoseResponse](t, ts.URL+"/sessions/"+resp.Session+"/tests",
		service.SessionTestsRequest{Candidates: []int{c.Inputs[0]}})
	if code != http.StatusBadRequest {
		t.Errorf("edit with an input candidate: %d, want 400", code)
	}
}

// TestServerHandlerGoroutineHygiene is the goleak-style check for the
// new handlers: after a burst of mixed requests (including cancelled
// ones) the goroutine count must settle back to the baseline — no
// stranded workers, no leaked per-request goroutines.
func TestServerHandlerGoroutineHygiene(t *testing.T) {
	srv, ts := newTestServer(t, 2)
	c, tests := scenario(t, 9, 4)
	bench := benchText(t, c)
	wire := testJSON(tests)

	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 3 {
				// A client that gives up immediately.
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				b, _ := json.Marshal(service.DiagnoseRequest{Bench: bench, Tests: wire, K: 2})
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/diagnose", bytes.NewReader(b))
				http.DefaultClient.Do(req)
				return
			}
			diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: wire, K: 2, Shards: 1 + i%2})
		}(i)
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		// Idle client keep-alive connections hold read/write loop
		// goroutines that are not the server's to clean up.
		http.DefaultClient.CloseIdleConnections()
		// The scheduler's resident workers (2) are expected; anything
		// beyond baseline+workers is a leak.
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after burst", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Drain is clean: admitted work finished, workers exited.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestCovIgnoresConflictBudget: maxConflicts budgets SAT search, and cov
// runs no solver, so a cold cov request with a one-conflict budget gets
// the same complete answer as one with no budget.
func TestCovIgnoresConflictBudget(t *testing.T) {
	_, ts := newTestServer(t, 2)
	golden, err := gen.ByName("s298x")
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := faults.Inject(golden, faults.Options{Count: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tests, err := tgen.Random(golden, c, tgen.Options{Count: 8, Seed: 1, MaxPatterns: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	req := service.DiagnoseRequest{Bench: benchText(t, c), Tests: testJSON(tests), Engine: "cov", K: 3}
	free := diagnose(t, ts.URL, req)
	req.MaxConflicts = 1
	budgeted := diagnose(t, ts.URL, req)
	t.Logf("%d covers", len(free.Solutions))
	if len(free.Solutions) < 100 || !free.Complete {
		t.Fatalf("cell has %d covers (complete=%v); it must have many", len(free.Solutions), free.Complete)
	}
	if !budgeted.Complete || budgeted.Degraded != "" || fmt.Sprint(budgeted.Solutions) != fmt.Sprint(free.Solutions) {
		t.Fatalf("budgeted: complete=%v degraded=%q, %d covers of %d", budgeted.Complete, budgeted.Degraded, len(budgeted.Solutions), len(free.Solutions))
	}
}
