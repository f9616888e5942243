package service_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// getJSON fetches url and decodes the body into T (any status).
func getJSON[T any](t *testing.T, url string) (int, T) {
	t.Helper()
	resp, err := http.Get(url)
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

// phaseSumMS sums the top-level phase durations of a span breakdown.
func phaseSumMS(sj *json.RawMessage, t *testing.T) (float64, float64, map[string]float64) {
	t.Helper()
	var span struct {
		DurationMS float64 `json:"durationMs"`
		Phases     []struct {
			Name       string  `json:"name"`
			DurationMS float64 `json:"durationMs"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(*sj, &span); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	byName := make(map[string]float64)
	for _, p := range span.Phases {
		sum += p.DurationMS
		byName[p.Name] = p.DurationMS
	}
	return span.DurationMS, sum, byName
}

// TestDiagnoseTimings is the tracing acceptance check: a warm /diagnose
// response carries a span breakdown whose top-level phases account for
// the request's wall time (within 10%), with the expected phase
// vocabulary.
func TestDiagnoseTimings(t *testing.T) {
	_, ts := newTestServer(t, 2)
	c, tests := scenario(t, 30, 6)
	bench := benchText(t, c)
	wire := testJSON(tests)

	// Cold-start the session, then measure the warm hit.
	first := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: wire, K: 2})
	if first.Timings == nil {
		t.Fatal("cold-start response has no timings")
	}
	if first.RequestID == "" {
		t.Fatal("response has no request id")
	}
	warm := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: bench, Tests: wire, K: 2})
	if warm.Timings == nil {
		t.Fatal("warm response has no timings")
	}
	if !warm.PoolHit || warm.Mode != "warm" {
		t.Fatalf("expected a warm hit, got mode=%q hit=%v", warm.Mode, warm.PoolHit)
	}

	raw, err := json.Marshal(warm.Timings)
	if err != nil {
		t.Fatal(err)
	}
	rm := json.RawMessage(raw)
	wall, sum, phases := phaseSumMS(&rm, t)
	if wall <= 0 {
		t.Fatalf("span wall time %v", wall)
	}
	for _, want := range []string{"queue", "pool", "session-wait", "solve", "respond"} {
		if _, ok := phases[want]; !ok {
			t.Fatalf("warm breakdown lacks phase %q: %v", want, phases)
		}
	}
	// The phases must account for the request: at least 90% of the span's
	// wall time, and never more than the wall time plus measurement noise.
	if sum < 0.9*wall {
		t.Fatalf("phases sum to %.3fms of %.3fms wall (<90%%): %v", sum, wall, phases)
	}
	if sum > 1.1*wall {
		t.Fatalf("phases sum to %.3fms of %.3fms wall (>110%%): %v", sum, wall, phases)
	}

	// The detail vocabulary: the warm hit's pool child span says so.
	if !strings.Contains(string(raw), service.OutcomeWarmHit) {
		t.Fatalf("warm breakdown does not mention %q: %s", service.OutcomeWarmHit, raw)
	}
}

// TestDegradedResponseCarriesFlightRecorder: a response that could not
// complete within its budget must arrive with the solver's flight
// recorder attached, and the dump must name the budget exit.
func TestDegradedResponseCarriesFlightRecorder(t *testing.T) {
	_, ts := newTestServer(t, 2)
	c, tests := scenario(t, 40, 6)
	resp := diagnose(t, ts.URL, service.DiagnoseRequest{
		Bench: benchText(t, c), Tests: testJSON(tests), K: 2, MaxConflicts: 1,
	})
	if resp.Complete {
		t.Skip("instance solved within one conflict; cannot exercise degradation")
	}
	if resp.Degraded == "" {
		t.Fatal("incomplete response not marked degraded")
	}
	if len(resp.FlightRecorder) == 0 {
		t.Fatal("degraded response carries no flight-recorder dump")
	}
	found := false
	for _, ev := range resp.FlightRecorder {
		if ev.Kind == "budget-exit" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump has no budget-exit event: %+v", resp.FlightRecorder)
	}

	// A complete response must NOT ship the dump on the wire.
	full := diagnose(t, ts.URL, service.DiagnoseRequest{
		Bench: benchText(t, c), Tests: testJSON(tests), K: 2,
	})
	if !full.Complete {
		t.Fatalf("unbudgeted request incomplete: %+v", full)
	}
	if len(full.FlightRecorder) != 0 {
		t.Fatal("complete response ships a flight recorder; it should only be in the trace store")
	}
}

// TestTraceEndpoints: every finished request is retrievable from
// GET /debug/diag/trace/{id} with its breakdown and events, and the
// list endpoint enumerates it.
func TestTraceEndpoints(t *testing.T) {
	_, ts := newTestServer(t, 2)
	c, tests := scenario(t, 50, 6)
	resp := diagnose(t, ts.URL, service.DiagnoseRequest{
		Bench: benchText(t, c), Tests: testJSON(tests), K: 2,
	})
	if resp.RequestID == "" {
		t.Fatal("no request id")
	}

	code, list := getJSON[[]service.TraceSummary](t, ts.URL+"/debug/diag/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/diag/trace -> %d", code)
	}
	found := false
	for _, s := range list {
		if s.ID == resp.RequestID {
			found = true
		}
	}
	if !found {
		t.Fatalf("request %s missing from trace list %+v", resp.RequestID, list)
	}

	code, rt := getJSON[service.RequestTrace](t, ts.URL+"/debug/diag/trace/"+resp.RequestID)
	if code != http.StatusOK {
		t.Fatalf("GET /debug/diag/trace/%s -> %d", resp.RequestID, code)
	}
	if rt.Timings == nil {
		t.Fatal("retained trace has no timings")
	}
	// A complete run keeps its events here even though the wire response
	// omitted them.
	if len(rt.FlightRecorder) == 0 {
		t.Fatal("retained trace has no flight-recorder events")
	}

	code, _ = getJSON[service.RequestTrace](t, ts.URL+"/debug/diag/trace/r999999")
	if code != http.StatusNotFound {
		t.Fatalf("unknown trace id -> %d, want 404", code)
	}
}

// TestIncrementalTimings: the stateful endpoint reports a breakdown too.
func TestIncrementalTimings(t *testing.T) {
	_, ts := newTestServer(t, 2)
	c, tests := scenario(t, 60, 6)
	first := diagnose(t, ts.URL, service.DiagnoseRequest{
		Bench: benchText(t, c), Tests: testJSON(tests[:4]), K: 2,
	})
	if first.Session == "" {
		t.Fatal("no session id")
	}
	code, inc := post[service.DiagnoseResponse](t, ts.URL+"/sessions/"+first.Session+"/tests",
		service.SessionTestsRequest{Add: testJSON(tests[4:])})
	if code != http.StatusOK {
		t.Fatalf("incremental -> %d", code)
	}
	if inc.Timings == nil {
		t.Fatal("incremental response has no timings")
	}
	if inc.RequestID == "" || inc.RequestID == first.RequestID {
		t.Fatalf("request ids not distinct: %q then %q", first.RequestID, inc.RequestID)
	}
}

// TestAcquireDetailOutcomes: the pool reports cold-build on a miss,
// warm-hit on an idle warm entry, and singleflight-wait when a second
// request arrives while the first is still building.
func TestAcquireDetailOutcomes(t *testing.T) {
	c, _ := scenario(t, 70, 4)
	pool := service.NewSessionPool(service.PoolOptions{})

	buildStarted := make(chan struct{})
	buildRelease := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var waiterOutcome string
	go func() {
		defer wg.Done()
		<-buildStarted
		e, outcome, err := pool.AcquireDetail("k", warmBuilder(c, nil))
		if err != nil {
			t.Error(err)
			return
		}
		waiterOutcome = outcome
		pool.Release(e)
	}()

	e, outcome, err := pool.AcquireDetail("k", func() (service.Built, error) {
		close(buildStarted)
		// Hold the build open until the waiter is (very likely) blocked
		// on the ready channel.
		select {
		case <-buildRelease:
		case <-time.After(50 * time.Millisecond):
		}
		return warmBuilder(c, nil)()
	})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != service.OutcomeColdBuild {
		t.Fatalf("first acquire outcome %q, want %q", outcome, service.OutcomeColdBuild)
	}
	wg.Wait()
	if waiterOutcome != service.OutcomeSingleFlight {
		t.Fatalf("concurrent acquire outcome %q, want %q", waiterOutcome, service.OutcomeSingleFlight)
	}
	pool.Release(e)

	_, outcome, err = pool.AcquireDetail("k", warmBuilder(c, nil))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != service.OutcomeWarmHit {
		t.Fatalf("idle acquire outcome %q, want %q", outcome, service.OutcomeWarmHit)
	}
}
