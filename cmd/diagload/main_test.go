package main

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

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

func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := service.NewServer(service.Options{
		Scheduler: service.SchedulerOptions{Workers: 2, Queue: 16},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestSmokeAgainstInProcessServer: the -smoke gate (cold, then warm
// pool hit with identical solutions) against a real service instance.
func TestSmokeAgainstInProcessServer(t *testing.T) {
	ts := newBackend(t)
	if err := runSmoke(testConfig(ts.URL)); err != nil {
		t.Fatal(err)
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
	var sb strings.Builder
	cfg.out = &sb
	if err := runLoad(cfg); err != nil {
		t.Fatal(err)
	}
	report := sb.String()
	for _, want := range []string{"req/s", "p50=", "diag_pool_hits_total"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestCompareAgainstInProcessServer: cold vs warm vs incremental runs
// cleanly and reports speedups (the assertion threshold is exercised on
// the real Table 2 workload, not this tiny circuit).
func TestCompareAgainstInProcessServer(t *testing.T) {
	ts := newBackend(t)
	cfg := testConfig(ts.URL)
	var sb strings.Builder
	cfg.out = &sb
	if err := runCompare(cfg); err != nil {
		t.Fatal(err)
	}
	report := sb.String()
	for _, want := range []string{"cold", "warm", "incremental", "x)"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestRestartAgainstInProcessServer: the -restart gate end to end on a
// journaling server — prime (diagnose plus one retract edit per
// session), crash without drain or seal, replay on the same journal,
// and verify finds every session warm with the post-edit test-set.
func TestRestartAgainstInProcessServer(t *testing.T) {
	dir := t.TempDir()
	journaled := func(pending bool) (*service.Server, *httptest.Server, *journal.Writer, *journal.State) {
		jw, st, err := journal.Open(journal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv := service.NewServer(service.Options{
			Scheduler:     service.SchedulerOptions{Workers: 2, Queue: 16},
			Journal:       jw,
			ReplayPending: pending,
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts, jw, st
	}
	state := filepath.Join(t.TempDir(), "st.json")

	_, tsA, jwA, _ := journaled(false)
	cfg := testConfig(tsA.URL)
	cfg.circuits = []string{"s298x", "s400x"}
	if err := runRestart(cfg, "prime", state); err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	jwA.Close()

	srvB, tsB, jwB, st := journaled(true)
	defer jwB.Close()
	replayed := make(chan struct{})
	go func() {
		defer close(replayed)
		srvB.Replay(st, 2)
	}()
	var sb strings.Builder
	cfg.addr, cfg.out = tsB.URL, &sb
	err := runRestart(cfg, "verify", state)
	<-replayed
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "restart verify ok: 2/2") {
		t.Fatalf("verify report: %s", sb.String())
	}
}
