package main

import (
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
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

// TestUsageErrors: flag values no mode can run with (no circuits, no
// requests, no clients) exit with status 2 and a usage error in every
// mode instead of panicking or reporting an empty run. The test
// re-executes its own binary as diagload with the flags under test.
func TestUsageErrors(t *testing.T) {
	if args := os.Getenv("DIAGLOAD_TEST_ARGS"); args != "" {
		os.Args = append([]string{"diagload"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cases := []struct{ args, want string }{
		{"-circuits=", "-circuits: need at least one circuit"},
		{"-smoke -circuits=", "-circuits: need at least one circuit"},
		{"-compare -circuits=,", "-circuits: need at least one circuit"},
		{"-chaos -circuits=", "-circuits: need at least one circuit"},
		{"-restart prime -circuits=", "-circuits: need at least one circuit"},
		{"-c 0", "-c: need at least one client, got 0"},
		{"-chaos -c 0", "-c: need at least one client, got 0"},
		{"-n 0", "-n: need at least one request, got 0"},
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
		if !strings.Contains(string(out), "diagload: "+tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}
