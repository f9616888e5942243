package service_test

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
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

// TestDiagnoseTimings is the tracing acceptance check: a cold-start and
// a warm /diagnose response each carry a span breakdown whose top-level
// phases account for the request's wall time (within 10%), with the
// expected phase vocabulary. The resolve phase (body decode, netlist
// resolution, validation) opens both; its child span says whether the
// netlist was already resolved.
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
	// Then an incremental edit on the same session: retract one test.
	code, edit := post[service.DiagnoseResponse](t, ts.URL+"/sessions/"+warm.Session+"/tests",
		service.SessionTestsRequest{Remove: []int{0}})
	if code != http.StatusOK {
		t.Fatalf("POST /sessions/{id}/tests -> %d", code)
	}
	if edit.Timings == nil || edit.Mode != "incremental" {
		t.Fatalf("edit: mode=%q timings=%v", edit.Mode, edit.Timings != nil)
	}

	served := []string{"resolve", "queue", "pool", "session-wait", "solve", "respond"}
	for _, tc := range []struct {
		name     string
		resp     service.DiagnoseResponse
		phases   []string // the phases the breakdown must include
		pool     string   // the pool child span's detail
		resolved string   // the resolve child span's detail
	}{
		{"cold-start", first, served, service.OutcomeColdBuild, "miss"},
		{"warm", warm, served, service.OutcomeWarmHit, "hit"},
		// An edit finds its session by id: no pool lookup, no netlist.
		{"incremental", edit, []string{"resolve", "queue", "session-wait", "solve", "respond"}, "", ""},
	} {
		raw, err := json.Marshal(tc.resp.Timings)
		if err != nil {
			t.Fatal(err)
		}
		rm := json.RawMessage(raw)
		wall, sum, phases := phaseSumMS(&rm, t)
		if wall <= 0 {
			t.Fatalf("%s: span wall time %v", tc.name, wall)
		}
		for _, want := range tc.phases {
			if _, ok := phases[want]; !ok {
				t.Fatalf("%s breakdown lacks phase %q: %v", tc.name, want, phases)
			}
		}
		// The phases must account for the request: at least 90% of the
		// span's wall time, and never more than the wall time plus
		// measurement noise.
		if sum < 0.9*wall {
			t.Fatalf("%s: phases sum to %.3fms of %.3fms wall (<90%%): %v", tc.name, sum, wall, phases)
		}
		if sum > 1.1*wall {
			t.Fatalf("%s: phases sum to %.3fms of %.3fms wall (>110%%): %v", tc.name, sum, wall, phases)
		}
		details := map[string]string{}
		for _, ch := range tc.resp.Timings.Children {
			details[ch.Name] = ch.Detail
		}
		if details["pool"] != tc.pool || details["resolve"] != tc.resolved {
			t.Fatalf("%s: pool detail %q, resolve detail %q; want %q and %q",
				tc.name, details["pool"], details["resolve"], tc.pool, tc.resolved)
		}
	}
}

// TestCovTimings: a traced cold cov request's engine span carries the
// "bsim" and "cover" phases, which with the final sort tile at least 90%
// of its wall time, and the covering counters.
func TestCovTimings(t *testing.T) {
	_, ts := newTestServer(t, 2)
	c, tests := scenario(t, 30, 6)
	resp := diagnose(t, ts.URL, service.DiagnoseRequest{
		Bench: benchText(t, c), Tests: testJSON(tests), Engine: "cov", K: 3,
	})
	if resp.Mode != "cold" || !resp.Complete || resp.Timings == nil {
		t.Fatalf("mode=%q complete=%v timings=%v", resp.Mode, resp.Complete, resp.Timings != nil)
	}
	var span *trace.SpanJSON
	for _, ch := range resp.Timings.Children {
		if ch.Name == "engine:cov" {
			span = ch
		}
	}
	if span == nil {
		t.Fatalf("no engine:cov span under %+v", resp.Timings)
	}
	sum := 0.0
	phases := map[string]float64{}
	for _, p := range span.Phases {
		sum += p.DurationMS
		phases[p.Name] = p.DurationMS
	}
	for _, want := range []string{"bsim", "cover"} {
		if _, ok := phases[want]; !ok {
			t.Fatalf("engine:cov span lacks phase %q: %v", want, phases)
		}
	}
	if sum < 0.9*span.DurationMS || sum > 1.1*span.DurationMS {
		t.Fatalf("phases sum to %.3fms of %.3fms wall: %v", sum, span.DurationMS, phases)
	}
	for _, name := range []string{"sets", "classes", "nodes", "covers"} {
		if span.Counters[name] <= 0 {
			t.Fatalf("counter %q missing: %v", name, span.Counters)
		}
	}
	if got := span.Counters["covers"]; got != int64(len(resp.Solutions)) {
		t.Fatalf("covers counter %d, %d solutions", got, len(resp.Solutions))
	}
	if span.Counters["sets"] != int64(len(tests)) {
		t.Fatalf("sets counter %d, %d tests", span.Counters["sets"], len(tests))
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
