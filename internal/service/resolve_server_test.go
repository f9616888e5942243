package service_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/service"
)

// metric reads one unlabeled series from GET /metrics.
func metric(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

// cacheCounters reads the circuit cache's hits, misses and entries.
func cacheCounters(t *testing.T, base string) (hits, misses, entries int64) {
	t.Helper()
	return metric(t, base, "diag_circuit_cache_hits_total"),
		metric(t, base, "diag_circuit_cache_misses_total"),
		metric(t, base, "diag_circuit_cache_entries")
}

// TestCommentVariantMissesCacheHitsPool: netlist text that differs only
// in a comment is a different cache key, so it is parsed again, but it
// has the same fingerprint and so reuses the warm session.
func TestCommentVariantMissesCacheHitsPool(t *testing.T) {
	_, ts := newTestServer(t, 2)
	c, tests := scenario(t, 11, 4)
	bench := benchText(t, c)
	wire := testJSON(tests)
	first := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: wire, K: 2})
	if first.PoolHit {
		t.Fatal("first request hit an empty pool")
	}
	again := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: wire, K: 2})
	if h, m, _ := cacheCounters(t, ts.URL); h != 1 || m != 1 {
		t.Fatalf("same text twice: hits=%d misses=%d, want 1 and 1", h, m)
	}
	commented := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: "# a comment\n" + bench, Tests: wire, K: 2})
	if h, m, n := cacheCounters(t, ts.URL); h != 1 || m != 2 || n != 2 {
		t.Fatalf("comment variant: hits=%d misses=%d entries=%d, want 1, 2, 2", h, m, n)
	}
	if !commented.PoolHit || commented.Mode != "warm" || commented.Session != first.Session {
		t.Fatalf("comment variant: poolHit=%v mode=%q session %q, want the warm session %q",
			commented.PoolHit, commented.Mode, commented.Session, first.Session)
	}
	want := mustJSON(t, first.Solutions)
	for _, r := range []service.DiagnoseResponse{again, commented} {
		if got := mustJSON(t, r.Solutions); got != want {
			t.Fatalf("%s != %s", got, want)
		}
	}
}

// TestEachNetlistParsedOnce is serve-mixed-shaped traffic: 12 netlists
// round-robin through a pool of 8 sessions, so every session is evicted
// and rebuilt, yet each netlist is parsed exactly once. Every answer
// equals monolithic BSAT on a fresh parse.
func TestEachNetlistParsedOnce(t *testing.T) {
	srv := service.NewServer(service.Options{
		Pool:      service.PoolOptions{MaxSessions: 8},
		Scheduler: service.SchedulerOptions{Workers: 2, Queue: 64},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	const netlists, rounds = 12, 3
	type load struct {
		bench string
		wire  []service.TestJSON
		want  string
	}
	loads := make([]load, netlists)
	for i := range loads {
		c, tests := scenario(t, int64(500+40*i), 3)
		bench := benchText(t, c)
		loads[i] = load{bench: bench, wire: testJSON(tests), want: mustJSON(t, truth(t, bench, tests, 1, 1))}
	}
	for r := 0; r < rounds; r++ {
		for i, l := range loads {
			mode := ""
			if (r+i)%4 == 0 {
				mode = "cold"
			}
			resp := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: l.bench, Tests: l.wire, K: 1, Mode: mode})
			if got := mustJSON(t, resp.Solutions); got != l.want {
				t.Fatalf("round %d netlist %d (%s): %s != %s", r, i, resp.Mode, got, l.want)
			}
		}
		if h, m, n := cacheCounters(t, ts.URL); m != netlists || h != int64(r*netlists) || n != netlists {
			t.Fatalf("after round %d: hits=%d misses=%d entries=%d, want %d, %d, %d",
				r, h, m, n, r*netlists, netlists, netlists)
		}
	}
	if ev := metric(t, ts.URL, "diag_pool_evictions_total"); ev == 0 {
		t.Fatal("a pool of 8 under 12 netlists never evicted")
	}
	if builds := metric(t, ts.URL, "diag_pool_misses_total"); builds <= netlists {
		t.Fatalf("%d cold builds: no session was rebuilt from a cached circuit", builds)
	}
}

// TestMalformedNetlistNeverCached: a netlist that does not parse answers
// 400 on every request and never enters the cache.
func TestMalformedNetlistNeverCached(t *testing.T) {
	_, ts := newTestServer(t, 1)
	req := service.DiagnoseRequest{
		Bench: "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n",
		Tests: []service.TestJSON{{Vector: "1", Output: 1}},
	}
	for i := 0; i < 3; i++ {
		if code, _ := post[service.DiagnoseResponse](t, ts.URL+"/diagnose", req); code != http.StatusBadRequest {
			t.Fatalf("attempt %d: status %d, want 400", i, code)
		}
	}
	if h, m, n := cacheCounters(t, ts.URL); h != 0 || m != 3 || n != 0 {
		t.Fatalf("hits=%d misses=%d entries=%d, want 0, 3, 0", h, m, n)
	}
}

// TestConcurrentSameNetlist: concurrent requests for one text, on the
// warm and the cold path and racing the first parse, all share the
// resolved circuit and give byte-identical answers.
func TestConcurrentSameNetlist(t *testing.T) {
	_, ts := newTestServer(t, 4)
	c, tests := scenario(t, 61, 5)
	bench := benchText(t, c)
	wire := testJSON(tests)
	want := mustJSON(t, truth(t, bench, tests, 2, 1))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mode := ""
			if i%2 == 1 {
				mode = "cold"
			}
			resp := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: wire, K: 2, Mode: mode, Shards: 1 + i%3/2})
			if got := mustJSON(t, resp.Solutions); got != want {
				t.Errorf("client %d (%s): %s != %s", i, resp.Mode, got, want)
			}
		}(i)
	}
	wg.Wait()
	if h, m, n := cacheCounters(t, ts.URL); h+m != 8 || n != 1 {
		t.Fatalf("hits=%d misses=%d entries=%d, want 8 lookups and 1 entry", h, m, n)
	}
}

// TestColdEnginesOnCachedCircuit: cold cov and cegar runs on a cached
// circuit, whose structural analysis earlier requests already memoized,
// answer exactly like the same engines on a fresh parse.
func TestColdEnginesOnCachedCircuit(t *testing.T) {
	_, ts := newTestServer(t, 2)
	c, tests := scenario(t, 81, 6)
	bench := benchText(t, c)
	wire := testJSON(tests)
	diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: wire, K: 2})
	for _, engine := range []string{"cov", "cegar", "cov", "cegar"} {
		fresh, err := circuit.ParseBench("fresh", strings.NewReader(bench))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Diagnose(context.Background(), core.Request{Engine: engine, Circuit: fresh, Tests: tests, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]int, len(rep.Solutions))
		for i, s := range rep.Solutions {
			want[i] = s.Gates
		}
		resp := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: wire, Engine: engine, K: 3})
		if resp.Mode != "cold" || !resp.Complete {
			t.Fatalf("%s: mode=%q complete=%v", engine, resp.Mode, resp.Complete)
		}
		if got, w := mustJSON(t, resp.Solutions), mustJSON(t, want); got != w {
			t.Fatalf("%s on the cached circuit: %s, fresh parse: %s", engine, got, w)
		}
	}
	if h, m, _ := cacheCounters(t, ts.URL); h != 4 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 4 and 1", h, m)
	}
}
