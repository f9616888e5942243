package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/failpoint"
	"repro/internal/service"
)

// getHealth fetches GET /healthz.
func getHealth(t *testing.T, base string) (int, service.HealthJSON) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h service.HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, h
}

// faultScenario scans for a scenario whose complete solution space has
// at least min diagnoses (so partial-answer tests have something to be
// partial about).
func faultScenario(t *testing.T, min int) (*circuit.Circuit, circuit.TestSet, [][]int) {
	t.Helper()
	for start := int64(1); start < 200; start += 10 {
		c, tests := scenario(t, start, 6)
		sols := truth(t, benchText(t, c), tests, 2, 1)
		if len(sols) >= min {
			return c, tests, sols
		}
	}
	t.Skipf("no scenario with >= %d solutions found", min)
	return nil, nil, nil
}

// TestSchedulerQueueTimeoutDistinct: a request skipped because its
// deadline expired in the queue returns ErrQueueTimeout, matchable
// separately from plain context errors.
func TestSchedulerQueueTimeoutDistinct(t *testing.T) {
	s := service.NewScheduler(service.SchedulerOptions{Workers: 1, Queue: 4})
	release := make(chan struct{})
	started := make(chan struct{})
	go s.Do(context.Background(), func(context.Context) {
		close(started)
		<-release
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		done <- s.Do(ctx, func(context.Context) {})
	}()
	close(release)
	err := <-done
	if !errors.Is(err, service.ErrQueueTimeout) {
		t.Fatalf("Do returned %v, want ErrQueueTimeout", err)
	}
	if s.QueueTimeouts.Value() != 1 {
		t.Fatalf("queue timeouts counted %d, want 1", s.QueueTimeouts.Value())
	}
}

// TestSchedulerRecoversPanic: a panicking request function surfaces as
// PanicError and the worker keeps serving.
func TestSchedulerRecoversPanic(t *testing.T) {
	s := service.NewScheduler(service.SchedulerOptions{Workers: 1, Queue: 4})
	err := s.Do(context.Background(), func(context.Context) { panic("poisoned request") })
	var pe *service.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Do returned %v, want PanicError", err)
	}
	if s.Panics.Value() != 1 {
		t.Fatalf("panics counted %d, want 1", s.Panics.Value())
	}
	// The single worker survived the panic.
	ran := false
	if err := s.Do(context.Background(), func(context.Context) { ran = true }); err != nil || !ran {
		t.Fatalf("worker dead after recovered panic: ran=%v err=%v", ran, err)
	}
}

// TestServerRetriesTransientFailures: injected transient failures on
// the service failpoint are retried with backoff and the request still
// answers 200 with the exact solution set.
func TestServerRetriesTransientFailures(t *testing.T) {
	defer failpoint.Disable()
	c, tests, want := faultScenario(t, 1)
	srv, ts := newTestServer(t, 2)
	bench := benchText(t, c)

	// Two injected errors: attempts 1 and 2 fail, attempt 3 serves.
	if err := failpoint.Enable("service/diagnose=error(1)x2", 11); err != nil {
		t.Fatal(err)
	}
	resp := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: testJSON(tests), K: 2})
	failpoint.Disable()
	if !resp.Complete || mustJSON(t, resp.Solutions) != mustJSON(t, want) {
		t.Fatalf("retried request diverged: complete=%v %v != %v", resp.Complete, resp.Solutions, want)
	}
	if code, _ := getHealth(t, ts.URL); code != http.StatusOK {
		t.Fatalf("healthz %d after recovered transient failures", code)
	}
	_ = srv
}

// TestServerRecoversInjectedPanic: a panic on the first attempt of an
// idempotent /diagnose is recovered and retried — the client sees a
// clean 200, /healthz flips to degraded.
func TestServerRecoversInjectedPanic(t *testing.T) {
	defer failpoint.Disable()
	c, tests, want := faultScenario(t, 1)
	_, ts := newTestServer(t, 2)
	bench := benchText(t, c)

	if err := failpoint.Enable("service/diagnose=panic(1)x1", 11); err != nil {
		t.Fatal(err)
	}
	resp := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: testJSON(tests), K: 2})
	failpoint.Disable()
	if !resp.Complete || mustJSON(t, resp.Solutions) != mustJSON(t, want) {
		t.Fatalf("post-panic retry diverged: complete=%v %v != %v", resp.Complete, resp.Solutions, want)
	}
	code, health := getHealth(t, ts.URL)
	if code != http.StatusOK || !health.Degraded || health.Status != "degraded" {
		t.Fatalf("healthz after recovered panic: code=%d %+v", code, health)
	}
	if health.PanicsRecovered == 0 {
		t.Fatal("recovered panic not counted")
	}
}

// TestServerPanicExhaustionIs500: when every retry attempt panics the
// request fails with 500 — but the process survives and the very next
// request serves normally.
func TestServerPanicExhaustionIs500(t *testing.T) {
	defer failpoint.Disable()
	c, tests, want := faultScenario(t, 1)
	_, ts := newTestServer(t, 2)
	bench := benchText(t, c)
	req := service.DiagnoseRequest{Bench: bench, Tests: testJSON(tests), K: 2}

	if err := failpoint.Enable("service/diagnose=panic(1)", 11); err != nil {
		t.Fatal(err)
	}
	code, _ := post[service.DiagnoseResponse](t, ts.URL+"/diagnose", req)
	failpoint.Disable()
	if code != http.StatusInternalServerError {
		t.Fatalf("all-attempts-panic answered %d, want 500", code)
	}
	resp := diagnose(t, ts.URL, req)
	if !resp.Complete || mustJSON(t, resp.Solutions) != mustJSON(t, want) {
		t.Fatalf("server unhealthy after panic storm: complete=%v %v != %v", resp.Complete, resp.Solutions, want)
	}
}

// TestServerInjectedErrorExhaustionIs503: an injected transient error
// that outlasts every retry answers 503 (retry later), not the 422 of a
// bad request, and the next request serves normally.
func TestServerInjectedErrorExhaustionIs503(t *testing.T) {
	defer failpoint.Disable()
	c, tests, want := faultScenario(t, 1)
	_, ts := newTestServer(t, 2)
	bench := benchText(t, c)
	req := service.DiagnoseRequest{Bench: bench, Tests: testJSON(tests), K: 2}

	if err := failpoint.Enable("service/diagnose=error(1)", 11); err != nil {
		t.Fatal(err)
	}
	code, _ := post[service.DiagnoseResponse](t, ts.URL+"/diagnose", req)
	failpoint.Disable()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("all-attempts-failed answered %d, want 503", code)
	}
	resp := diagnose(t, ts.URL, req)
	if !resp.Complete || mustJSON(t, resp.Solutions) != mustJSON(t, want) {
		t.Fatalf("server unhealthy after injected errors: complete=%v %v != %v", resp.Complete, resp.Solutions, want)
	}
}

// TestServerDegradedSolutionCap: a budget-capped run answers 200 with
// complete=false, the solutions found so far, and a degraded reason —
// the graceful-degradation contract. A no-op edit inherits the cap and
// must name the same reason.
func TestServerDegradedSolutionCap(t *testing.T) {
	c, tests, want := faultScenario(t, 2)
	srv, ts := newTestServer(t, 2)
	bench := benchText(t, c)

	resp := diagnose(t, ts.URL, service.DiagnoseRequest{
		Bench: bench, Tests: testJSON(tests), K: 2, MaxSolutions: 1,
	})
	if resp.Complete {
		t.Fatalf("capped run reported complete with %d of %d solutions", len(resp.Solutions), len(want))
	}
	if resp.Degraded != "solution-cap" {
		t.Fatalf("degraded reason %q, want solution-cap", resp.Degraded)
	}
	if len(resp.Solutions) != 1 {
		t.Fatalf("capped run returned %d solutions, want the 1 found so far", len(resp.Solutions))
	}
	code, edit := post[service.DiagnoseResponse](t, ts.URL+"/sessions/"+resp.Session+"/tests", service.SessionTestsRequest{})
	if code != http.StatusOK || edit.Complete || edit.Degraded != "solution-cap" {
		t.Fatalf("no-op edit under the inherited cap: code=%d complete=%v degraded %q, want solution-cap",
			code, edit.Complete, edit.Degraded)
	}
	code, health := getHealth(t, ts.URL)
	if code != http.StatusOK || !health.Degraded || health.DegradedResponses == 0 {
		t.Fatalf("healthz after degraded response: code=%d %+v", code, health)
	}
	_ = srv
}

// TestServerQueueTimeout503: a request whose deadline expires while it
// waits behind a busy worker answers 503 (retry later), not 504.
func TestServerQueueTimeout503(t *testing.T) {
	defer failpoint.Disable()
	c, tests, _ := faultScenario(t, 1)
	srv, ts := newTestServer(t, 1)
	bench := benchText(t, c)
	req := service.DiagnoseRequest{Bench: bench, Tests: testJSON(tests), K: 2}

	// The delay failpoint parks the only worker for 300ms.
	if err := failpoint.Enable("service/diagnose=delay(300ms,1)x1", 11); err != nil {
		t.Fatal(err)
	}
	first := make(chan struct{})
	go func() {
		defer close(first)
		post[service.DiagnoseResponse](t, ts.URL+"/diagnose", req)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Sched().InFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never started")
		}
		time.Sleep(time.Millisecond)
	}
	fast := req
	fast.TimeoutMs = 1
	code, _ := post[service.DiagnoseResponse](t, ts.URL+"/diagnose", fast)
	<-first
	if code != http.StatusServiceUnavailable {
		t.Fatalf("queued-expired request answered %d, want 503", code)
	}
	if srv.Sched().QueueTimeouts.Value() == 0 {
		t.Fatal("queue timeout not counted")
	}
}

// TestWarmSessionSurvivesMidRunCancel is the warm-path cancellation
// satellite: interrupted runs (pre-cancelled context, expired deadline,
// solution-capped partial round) must leave the PoolEntry usable, and
// the next full run on the same entry must be byte-identical to a
// fresh session's answer.
func TestWarmSessionSurvivesMidRunCancel(t *testing.T) {
	c, tests, _ := faultScenario(t, 2)
	pool := service.NewSessionPool(service.PoolOptions{})
	key := service.Fingerprint(c)
	entry, _, err := pool.Acquire(key, warmBuilder(c, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Release(entry)

	// Fresh-session ground truth from an independent pool.
	fresh, _, err := service.NewSessionPool(service.PoolOptions{}).Acquire(key, warmBuilder(c, nil))
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := fresh.Diagnose(context.Background(), tests, service.RunSpec{K: 2})
	if err != nil || !wantRep.Complete {
		t.Fatalf("fresh baseline: complete=%v err=%v", wantRep.Complete, err)
	}

	// 1. Pre-cancelled context: the round aborts immediately.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if rep, err := entry.Diagnose(cancelled, tests, service.RunSpec{K: 2}); err == nil && rep.Complete {
		t.Fatal("cancelled run reported complete")
	}
	// 2. Already-expired deadline.
	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond)
	if rep, err := entry.Diagnose(expired, tests, service.RunSpec{K: 2}); err == nil && rep.Complete {
		t.Fatal("expired run reported complete")
	}
	// 3. A genuinely partial round: stop after the first solution.
	rep, err := entry.Diagnose(context.Background(), tests, service.RunSpec{K: 2, MaxSolutions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("capped warm run reported complete")
	}

	// The entry must still serve complete, byte-identical answers.
	got, err := entry.Diagnose(context.Background(), tests, service.RunSpec{K: 2})
	if err != nil || !got.Complete {
		t.Fatalf("entry unusable after interrupted runs: complete=%v err=%v", got.Complete, err)
	}
	if !reflect.DeepEqual(got.Solutions, wantRep.Solutions) {
		t.Fatalf("post-cancel run diverged from fresh session:\n got %v\nwant %v", got.Solutions, wantRep.Solutions)
	}
}
