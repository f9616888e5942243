package main

import (
	"net/http/httptest"
	"strings"
	"testing"

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
