package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/sat"
	"repro/internal/tgen"
	"repro/internal/trace"
)

// maxBodyBytes bounds request bodies (.bench netlists dominate).
const maxBodyBytes = 64 << 20

// FailpointDiagnose fires once per diagnosis attempt, before any work
// runs — an injected failure is therefore always safe to retry.
const FailpointDiagnose = "service/diagnose"

// diagnoseRetries bounds the transient-failure retry loop per request;
// retryBackoff is the first backoff step, doubling per retry.
const (
	diagnoseRetries = 2
	retryBackoff    = 5 * time.Millisecond
)

// degradedWindow is how long a recovered panic or degraded response
// keeps /healthz reporting status "degraded".
const degradedWindow = 30 * time.Second

// Options configures a Server.
type Options struct {
	Pool      PoolOptions
	Scheduler SchedulerOptions

	// Logger receives structured request logs (one line per request,
	// keyed by request id). nil discards them — tests and embedders that
	// do not care pay nothing.
	Logger *slog.Logger

	// TraceStore bounds how many completed request traces are retained
	// for GET /debug/diag/trace (0 = DefaultTraceStoreSize).
	TraceStore int

	// Journal, when non-nil, makes the warm pool durable: session
	// lifecycle records are appended to it and Drain seals it. nil
	// disables persistence (tests, embedders without a -journal-dir).
	Journal *journal.Writer

	// ReplayPending starts the server in the warming state: /healthz
	// answers 503 not-ready until Replay is called and completes.
	ReplayPending bool
}

// Server is the diagnosis service: session pool + scheduler + the JSON
// handlers. Create with NewServer, mount via Handler.
type Server struct {
	pool     *SessionPool
	sched    *Scheduler
	circuits *circuitCache // resolves each distinct netlist once
	start    time.Time
	log      *slog.Logger
	traces   *traceStore
	reqID    atomic.Int64

	requests  metrics.Counter
	failures  metrics.Counter
	latencies map[string]*metrics.Histogram // by response mode
	// phases holds one latency histogram per request-span phase
	// (diag_phase_seconds{phase=...}): where end-to-end time actually
	// went, queue-wait separated from execution.
	phases map[string]*metrics.Histogram

	// Fault-tolerance counters (tentpole of the robustness PR).
	panicsRecovered   metrics.Counter // handler/attempt panics turned into errors
	cubeRetries       metrics.Counter // shard-level cube retries, summed per run
	degradedResponses metrics.Counter // HTTP 200 with complete=false
	requestRetries    metrics.Counter // transient-failure retry attempts

	// Unix-nano timestamps of the last panic / degraded response,
	// feeding the /healthz degraded window.
	lastPanic    atomic.Int64
	lastDegraded atomic.Int64

	// Durability state (nil journal = persistence disabled). warming is
	// true from construction with ReplayPending until Replay completes;
	// /healthz reports 503 not-ready meanwhile. replaySt retains the
	// journal state the boot replayed, for /metrics.
	journal  *journal.Writer
	warming  atomic.Bool
	replaySt atomic.Pointer[journal.State]

	// Replay counters (diag_replay_*).
	replaySessions metrics.Counter // sessions rebuilt into the pool
	replaySkipped  metrics.Counter // sessions skipped (corrupt, failpoint, budget)
	replayTests    metrics.Counter // test copies re-encoded
	replayMillis   metrics.Gauge   // wall time of the last replay
}

// spanPhases are the request-span phases that get their own
// diag_phase_seconds histogram. "resolve" (body decode, netlist or
// session resolution and request validation) is lapped by the handler at
// admission, "queue" by the scheduler worker, "retry" by the retry
// wrapper, "respond" when the request finishes, the rest by the
// pool/warm/cold paths; phases a request never entered simply observe
// nothing.
var spanPhases = []string{"resolve", "queue", "pool", "session-wait", "encode", "solve", "retry", "respond"}

// NewServer assembles a service instance.
func NewServer(opts Options) *Server {
	phases := make(map[string]*metrics.Histogram, len(spanPhases))
	for _, p := range spanPhases {
		phases[p] = new(metrics.Histogram)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	poolOpts := opts.Pool
	poolOpts.Journal = opts.Journal
	s := &Server{
		pool:     NewSessionPool(poolOpts),
		sched:    NewScheduler(opts.Scheduler),
		circuits: newCircuitCache(DefaultMaxSessions, maxBodyBytes),
		start:    time.Now(),
		log:      logger,
		traces:   newTraceStore(opts.TraceStore),
		latencies: map[string]*metrics.Histogram{
			"cold":        new(metrics.Histogram),
			"warm":        new(metrics.Histogram),
			"incremental": new(metrics.Histogram),
		},
		phases:  phases,
		journal: opts.Journal,
	}
	s.warming.Store(opts.ReplayPending)
	return s
}

// Pool exposes the session pool (tests and cmd wiring).
func (s *Server) Pool() *SessionPool { return s.pool }

// Scheduler exposes the scheduler (drain on shutdown).
func (s *Server) Sched() *Scheduler { return s.sched }

// Handler returns the HTTP surface, wrapped in the recover middleware:
// a panicking handler answers 500 and bumps a counter instead of
// killing the process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /diagnose", s.handleDiagnose)
	mux.HandleFunc("POST /sessions/{id}/tests", s.handleSessionTests)
	mux.HandleFunc("GET /sessions", s.handleSessions)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /livez", s.handleLivez)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /scenario", s.handleScenario)
	mux.HandleFunc("GET /debug/diag/trace", s.handleTraceList)
	mux.HandleFunc("GET /debug/diag/trace/{id}", s.handleTraceGet)
	return s.recoverMiddleware(mux)
}

// recoverMiddleware is the outermost backstop: anything that escapes
// the per-attempt and scheduler recovers still answers a 500 rather
// than crashing the shared server.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.notePanic()
				s.failures.Inc()
				writeError(w, http.StatusInternalServerError, "internal panic recovered: %v", v)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) notePanic() {
	s.panicsRecovered.Inc()
	s.lastPanic.Store(time.Now().UnixNano())
}

// Drain stops admission, waits for in-flight requests, then seals the
// journal: the in-flight appends have landed, so the clean-shutdown
// record is the true end of the log and the next boot skips torn-tail
// verification.
func (s *Server) Drain(ctx context.Context) error {
	err := s.sched.Drain(ctx)
	s.journal.Seal()
	return err
}

// TestJSON is one failing test triple on the wire. Vector is a 0/1
// string with one character per primary input, in circuit input order.
type TestJSON struct {
	Vector string `json:"vector"`
	Output int    `json:"output"`
	Want   bool   `json:"want"`
}

// DiagnoseRequest is the POST /diagnose body.
type DiagnoseRequest struct {
	// Bench is the faulty implementation as .bench netlist text.
	// Circuit alternatively names a synthetic-suite circuit (mostly for
	// experiments; real deployments ship the netlist).
	Bench   string `json:"bench,omitempty"`
	Circuit string `json:"circuit,omitempty"`

	Tests []TestJSON `json:"tests"`

	// Engine names the procedure ("" = bsat). Mode selects
	// the serving path: "auto" (default — warm-session path for bsat,
	// cold otherwise), "warm" (require the pooled path), or "cold"
	// (bypass the pool, monolithic core.Diagnose).
	Engine string `json:"engine,omitempty"`
	Mode   string `json:"mode,omitempty"`

	K          int   `json:"k,omitempty"`
	Shards     int   `json:"shards,omitempty"`
	SampleCap  int   `json:"sampleCap,omitempty"`
	Candidates []int `json:"candidates,omitempty"`

	// Budgets; zero means unlimited. MaxConflicts is a SAT conflict
	// budget per solve, so bsim and cov, which run no solver, ignore it.
	MaxSolutions int   `json:"maxSolutions,omitempty"`
	MaxConflicts int64 `json:"maxConflicts,omitempty"`
	TimeoutMs    int64 `json:"timeoutMs,omitempty"`
}

// SolverStatsJSON is the solver-work excerpt reported per response.
type SolverStatsJSON struct {
	Decisions    int64 `json:"decisions"`
	Conflicts    int64 `json:"conflicts"`
	Propagations int64 `json:"propagations"`
}

func solverStatsJSON(st sat.Stats) SolverStatsJSON {
	return SolverStatsJSON{
		Decisions:    st.Decisions,
		Conflicts:    st.Conflicts,
		Propagations: st.Propagations,
	}
}

// DiagnoseResponse is the /diagnose and /sessions/{id}/tests reply.
// Solutions is canonical (size, then lexicographic): for complete runs
// it is byte-identical across cold, warm and incremental serving paths.
type DiagnoseResponse struct {
	Engine     string  `json:"engine"`
	Mode       string  `json:"mode"` // cold | warm | incremental
	Solutions  [][]int `json:"solutions"`
	Complete   bool    `json:"complete"`
	Guaranteed bool    `json:"guaranteed"`

	Session   string `json:"session,omitempty"` // warm-session id for follow-ups
	PoolHit   bool   `json:"poolHit"`
	Tests     int    `json:"tests"`
	NewCopies int    `json:"newCopies,omitempty"`

	Vars      int             `json:"vars,omitempty"`
	Clauses   int             `json:"clauses,omitempty"`
	Shards    int             `json:"shards,omitempty"`
	Stats     SolverStatsJSON `json:"stats"`
	ElapsedMs float64         `json:"elapsedMs"`

	// Degraded names why an incomplete run stopped (deadline,
	// conflict-budget, solution-cap, cube-abandoned, budget). Empty on
	// complete runs. A degraded answer is still HTTP 200: the solutions
	// found so far are valid diagnoses, just not provably all of them.
	Degraded string `json:"degraded,omitempty"`

	// Cube fault-tolerance counters of this run's sharded enumeration.
	CubePanics    int `json:"cubePanics,omitempty"`
	CubeRetries   int `json:"cubeRetries,omitempty"`
	CubeAbandoned int `json:"cubeAbandoned,omitempty"`

	// RequestID names this request in the server's logs and trace store
	// (GET /debug/diag/trace/{id}).
	RequestID string `json:"requestId,omitempty"`

	// Timings is the request's span breakdown: where the wall time went
	// (queue, pool, encode, solve, …), with per-round and per-cube child
	// spans and their solver-work counters.
	Timings *trace.SpanJSON `json:"timings,omitempty"`

	// FlightRecorder is attached to degraded (complete=false) responses
	// only: the solver control-flow events of this run, so the "why did
	// it stop" question is answerable from the response alone. Complete
	// runs keep theirs reachable via /debug/diag/trace/{id}.
	FlightRecorder []trace.Event `json:"flightRecorder,omitempty"`

	// events is the run's full recorder window, wire-attached only when
	// degraded but always retained in the trace store.
	events []trace.Event
}

type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// errAttemptPanic marks a diagnosis attempt that panicked and was
// recovered below the scheduler; the retry loop decides whether the
// attempt is safe to repeat.
var errAttemptPanic = errors.New("service: diagnosis attempt panicked")

// serveWithRetry runs serve with a bounded exponential-backoff retry
// loop. Failpoint-injected failures fire before any diagnosis work and
// are always retried; recovered panics are retried only when the
// caller declares the attempt idempotent (the declarative /diagnose
// paths are; the stateful incremental edit is not — a panic may have
// left the session's test list half-edited).
func (s *Server) serveWithRetry(ctx context.Context, idempotent bool,
	serve func(context.Context) (*DiagnoseResponse, error)) (*DiagnoseResponse, error) {

	backoff := retryBackoff
	for attempt := 0; ; attempt++ {
		resp, err := s.serveOnce(ctx, serve)
		if err == nil || attempt >= diagnoseRetries {
			return resp, err
		}
		transient := failpoint.IsInjected(err) || (idempotent && errors.Is(err, errAttemptPanic))
		if !transient || ctx.Err() != nil {
			return resp, err
		}
		s.requestRetries.Inc()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		// The failed attempt and its backoff are one phase of their own.
		trace.FromContext(ctx).Lap("retry")
		backoff *= 2
	}
}

// serveOnce runs one diagnosis attempt: the service-level failpoint
// fires first (so chaos runs can fail an attempt without executing
// it), and a panic below this frame becomes an error instead of
// reaching the scheduler.
func (s *Server) serveOnce(ctx context.Context, serve func(context.Context) (*DiagnoseResponse, error)) (resp *DiagnoseResponse, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.notePanic()
			resp, err = nil, fmt.Errorf("%w: %v", errAttemptPanic, v)
		}
	}()
	if ferr := failpoint.Inject(FailpointDiagnose); ferr != nil {
		return nil, ferr
	}
	return serve(ctx)
}

// annotateFaults copies the run's cube fault counters onto the wire
// and, for incomplete runs, classifies why the run stopped.
func (s *Server) annotateFaults(ctx context.Context, resp *DiagnoseResponse, perShard []cnf.ShardStats, maxSolutions int, maxConflicts int64) {
	for _, st := range perShard {
		resp.CubePanics += st.Panics
		resp.CubeRetries += st.Retries
		resp.CubeAbandoned += st.Abandoned
	}
	if resp.CubeRetries > 0 {
		s.cubeRetries.Add(int64(resp.CubeRetries))
	}
	if resp.Complete {
		return
	}
	switch {
	case resp.CubeAbandoned > 0:
		resp.Degraded = "cube-abandoned"
	case ctx.Err() != nil:
		resp.Degraded = "deadline"
	case maxSolutions > 0 && len(resp.Solutions) >= maxSolutions:
		resp.Degraded = "solution-cap"
	case maxConflicts > 0:
		resp.Degraded = "conflict-budget"
	default:
		resp.Degraded = "budget"
	}
}

// countShards reports the parallel enumeration stages of a run,
// excluding the sequential sample pseudo-stage (Shard == -1) — the
// number a client can compare against its requested shard count.
func countShards(perShard []cnf.ShardStats) int {
	n := 0
	for _, st := range perShard {
		if st.Shard >= 0 {
			n++
		}
	}
	return n
}

// EncodeTests renders tests in their wire form (the inverse of
// DecodeTests).
func EncodeTests(ts circuit.TestSet) []TestJSON {
	out := make([]TestJSON, len(ts))
	for i, t := range ts {
		vec := make([]byte, len(t.Vector))
		for j, b := range t.Vector {
			vec[j] = '0'
			if b {
				vec[j] = '1'
			}
		}
		out[i] = TestJSON{Vector: string(vec), Output: t.Output, Want: t.Want}
	}
	return out
}

// DecodeTests validates wire tests against c and converts them.
func DecodeTests(c *circuit.Circuit, in []TestJSON) (circuit.TestSet, error) {
	if len(in) == 0 {
		return nil, errors.New("request needs a non-empty test list")
	}
	tests := make(circuit.TestSet, len(in))
	for i, tj := range in {
		if len(tj.Vector) != len(c.Inputs) {
			return nil, fmt.Errorf("test %d: vector has %d bits, circuit has %d inputs", i, len(tj.Vector), len(c.Inputs))
		}
		if tj.Output < 0 || tj.Output >= len(c.Gates) {
			return nil, fmt.Errorf("test %d: output gate %d out of range", i, tj.Output)
		}
		vec := make([]bool, len(tj.Vector))
		for j, ch := range tj.Vector {
			switch ch {
			case '0':
			case '1':
				vec[j] = true
			default:
				return nil, fmt.Errorf("test %d: vector must be 0/1 characters", i)
			}
		}
		tests[i] = circuit.Test{Vector: vec, Output: tj.Output, Want: tj.Want}
	}
	return tests, nil
}

// checkCandidates rejects a candidate restriction naming anything but
// internal gates of c: answered as-is, it would certify "no correction
// of size <= k" for a malformed request. An empty list (all internal
// gates) is legal.
func checkCandidates(c *circuit.Circuit, ids []int) error {
	for _, id := range ids {
		if id < 0 || id >= len(c.Gates) || c.IsInput(id) {
			return fmt.Errorf("candidate %d is not an internal gate", id)
		}
	}
	return nil
}

func (req *DiagnoseRequest) runSpec() RunSpec {
	k := req.K
	if k < 1 {
		k = 1
	}
	return RunSpec{
		K:            k,
		Shards:       req.Shards,
		SampleCap:    req.SampleCap,
		Candidates:   req.Candidates,
		MaxSolutions: req.MaxSolutions,
		MaxConflicts: req.MaxConflicts,
	}
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	// The root request span starts before the body is read, so its
	// duration is the wall time the phase breakdown must account for:
	// decoding, netlist resolution and validation are its resolve phase.
	span := trace.New("request")
	var req DiagnoseRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	resolveSpan := span.Child("resolve")
	res, cached, err := s.circuits.resolve(&req)
	if cached {
		resolveSpan.SetDetail("hit")
	} else {
		resolveSpan.SetDetail("miss")
	}
	resolveSpan.End()
	if err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c := res.circ
	tests, err := DecodeTests(c, req.Tests)
	if err == nil {
		err = checkCandidates(c, req.Candidates)
	}
	if err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	engine := req.Engine
	if engine == "" {
		engine = "bsat"
	}
	mode := req.Mode
	if mode == "" {
		mode = "auto"
	}
	warmable := engine == "bsat"
	switch mode {
	case "auto", "cold":
	case "warm":
		if !warmable {
			s.failures.Inc()
			writeError(w, http.StatusBadRequest, "mode warm requires engine bsat (the pooled SAT path), got %q", engine)
			return
		}
	default:
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, "unknown mode %q (auto, warm, cold)", mode)
		return
	}
	useWarm := mode != "cold" && warmable

	ctx, cancel := s.sched.RequestContext(r.Context(), time.Duration(req.TimeoutMs)*time.Millisecond)
	defer cancel()

	rid := s.nextRequestID()
	span.SetDetail(engine)
	ctx = trace.NewContext(ctx, span)
	span.Lap("resolve")

	var resp *DiagnoseResponse
	var derr error
	err = s.sched.Do(ctx, func(ctx context.Context) {
		// /diagnose is declarative (the request carries its whole
		// test-set), so even a panicked attempt is safe to retry.
		resp, derr = s.serveWithRetry(ctx, true, func(ctx context.Context) (*DiagnoseResponse, error) {
			if useWarm {
				return s.serveWarm(ctx, res, tests, &req, engine)
			}
			return s.serveCold(ctx, c, tests, &req, engine)
		})
	})
	s.finish(w, resp, derr, err, rid, span)
}

// nextRequestID mints the per-process request identifier used in logs,
// responses and the trace store.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("r%d", s.reqID.Add(1))
}

// serveWarm runs the pooled path: acquire (or single-flight build) the
// warm session for the circuit's fingerprint and diagnose on it.
func (s *Server) serveWarm(ctx context.Context, res *resolvedCircuit, tests circuit.TestSet,
	req *DiagnoseRequest, engine string) (*DiagnoseResponse, error) {

	spec := req.runSpec()
	poolSpan := trace.FromContext(ctx).Child("pool")
	entry, outcome, err := s.pool.AcquireDetail(res.fp, func() (Built, error) {
		// The journal source is rendered only for journaled builds, and
		// then once per resolved netlist.
		var src string
		if s.journal != nil {
			src = res.source()
		}
		return Built{
			Session:     NewWarmSession(res.circ, spec.K),
			Circuit:     res.circ,
			Source:      src,
			Fingerprint: res.fp,
		}, nil
	})
	if poolSpan != nil {
		poolSpan.SetDetail(outcome)
		poolSpan.End()
		trace.FromContext(ctx).Lap("pool")
	}
	if err != nil {
		return nil, err
	}
	hit := outcome != OutcomeColdBuild
	defer s.pool.Release(entry)
	rep, err := entry.Diagnose(ctx, tests, spec)
	if err != nil {
		return nil, err
	}
	respMode := "cold"
	if hit {
		respMode = "warm"
	}
	resp := &DiagnoseResponse{
		Engine:     engine,
		Mode:       respMode,
		Solutions:  rep.Solutions,
		Complete:   rep.Complete,
		Guaranteed: true,
		Session:    entry.ID(),
		PoolHit:    hit,
		Tests:      rep.Copies,
		NewCopies:  rep.NewCopies,
		Vars:       rep.Vars,
		Clauses:    rep.Clauses,
		Shards:     countShards(rep.PerShard),
		Stats:      solverStatsJSON(rep.Stats),
	}
	resp.events = rep.Events
	s.annotateFaults(ctx, resp, rep.PerShard, rep.Spec.MaxSolutions, rep.Spec.MaxConflicts)
	return resp, nil
}

// serveCold bypasses the pool: one monolithic core.Diagnose call.
func (s *Server) serveCold(ctx context.Context, c *circuit.Circuit, tests circuit.TestSet,
	req *DiagnoseRequest, engine string) (*DiagnoseResponse, error) {

	// Cold runs build a throwaway solver, so they get a private flight
	// recorder via the context (core's option plumbing installs it).
	rec := trace.NewRecorder(0)
	ctx = trace.WithRecorder(ctx, rec)
	rep, err := core.Diagnose(ctx, core.Request{
		Engine:       engine,
		Circuit:      c,
		Tests:        tests,
		K:            req.K,
		Shards:       req.Shards,
		ShardSample:  req.SampleCap,
		MaxSolutions: req.MaxSolutions,
		MaxConflicts: req.MaxConflicts,
		Candidates:   req.Candidates,
	})
	// A cold run builds its instance and enumerates in one call, so both
	// land in the solve phase (the round child spans split it per k).
	trace.FromContext(ctx).Lap("solve")
	if err != nil {
		return nil, err
	}
	sols := make([][]int, len(rep.Solutions))
	for i, sol := range rep.Solutions {
		sols[i] = sol.Gates
	}
	resp := &DiagnoseResponse{
		Engine:     rep.Engine,
		Mode:       "cold",
		Solutions:  sols,
		Complete:   rep.Complete,
		Guaranteed: rep.Guaranteed,
		Tests:      len(tests),
		Vars:       rep.Vars,
		Clauses:    rep.Clauses,
		Shards:     countShards(rep.PerShard),
		Stats:      solverStatsJSON(rep.Stats),
	}
	resp.events = rec.Snapshot()
	s.annotateFaults(ctx, resp, rep.PerShard, req.MaxSolutions, req.MaxConflicts)
	return resp, nil
}

// SessionTestsRequest is the POST /sessions/{id}/tests body: an edit of
// the session's current test-set plus optional knob overrides (zero
// values inherit the previous run).
type SessionTestsRequest struct {
	Add    []TestJSON `json:"add,omitempty"`
	Remove []int      `json:"remove,omitempty"` // positions in the current test list

	K            int   `json:"k,omitempty"`
	Shards       int   `json:"shards,omitempty"`
	SampleCap    int   `json:"sampleCap,omitempty"`
	Candidates   []int `json:"candidates,omitempty"`
	MaxSolutions int   `json:"maxSolutions,omitempty"`
	MaxConflicts int64 `json:"maxConflicts,omitempty"`
	TimeoutMs    int64 `json:"timeoutMs,omitempty"`
}

func (s *Server) handleSessionTests(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	// As in handleDiagnose, the span starts before the body is read:
	// decoding, the session lookup and validation are the resolve phase.
	span := trace.New("request")
	id := r.PathValue("id")
	var req SessionTestsRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	entry, ok := s.pool.ByID(id)
	if !ok {
		s.failures.Inc()
		writeError(w, http.StatusNotFound, "unknown session %q (evicted or never created)", id)
		return
	}
	defer s.pool.Release(entry)
	add, err := decodeAdd(entry.Circuit(), req.Add)
	if err == nil {
		err = checkCandidates(entry.Circuit(), req.Candidates)
	}
	if err != nil {
		s.failures.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec := RunSpec{
		K:            req.K,
		Shards:       req.Shards,
		SampleCap:    req.SampleCap,
		Candidates:   req.Candidates,
		MaxSolutions: req.MaxSolutions,
		MaxConflicts: req.MaxConflicts,
	}

	ctx, cancel := s.sched.RequestContext(r.Context(), time.Duration(req.TimeoutMs)*time.Millisecond)
	defer cancel()

	rid := s.nextRequestID()
	span.SetDetail("incremental")
	ctx = trace.NewContext(ctx, span)
	span.Lap("resolve")

	var resp *DiagnoseResponse
	var derr error
	err = s.sched.Do(ctx, func(ctx context.Context) {
		// The incremental edit mutates the session's test list, so a
		// panicked attempt is NOT retried (idempotent=false); injected
		// pre-execution failures still are.
		resp, derr = s.serveWithRetry(ctx, false, func(ctx context.Context) (*DiagnoseResponse, error) {
			rep, active, ierr := entry.Incremental(ctx, add, req.Remove, spec)
			if ierr != nil {
				return nil, ierr
			}
			r := &DiagnoseResponse{
				Engine:     "bsat",
				Mode:       "incremental",
				Solutions:  rep.Solutions,
				Complete:   rep.Complete,
				Guaranteed: true,
				Session:    entry.ID(),
				PoolHit:    true,
				Tests:      len(active),
				NewCopies:  rep.NewCopies,
				Vars:       rep.Vars,
				Clauses:    rep.Clauses,
				Shards:     countShards(rep.PerShard),
				Stats:      solverStatsJSON(rep.Stats),
			}
			r.events = rep.Events
			// Classify with the knobs the run used: an edit inherits the
			// budgets its request left unset.
			s.annotateFaults(ctx, r, rep.PerShard, rep.Spec.MaxSolutions, rep.Spec.MaxConflicts)
			return r, nil
		})
	})
	s.finish(w, resp, derr, err, rid, span)
}

// decodeAdd is DecodeTests allowing an empty list (pure retractions).
func decodeAdd(c *circuit.Circuit, in []TestJSON) (circuit.TestSet, error) {
	if len(in) == 0 {
		return nil, nil
	}
	return DecodeTests(c, in)
}

// finish maps the (response, diagnosis error, scheduling error) triple
// onto the wire and records latency, the span breakdown, the per-phase
// histograms, the retained trace and the request log line. A deadline
// that fires mid-run with partial results still answers 200 (the
// degradation contract); only a request that produced nothing maps to
// an error status.
func (s *Server) finish(w http.ResponseWriter, resp *DiagnoseResponse, derr, schedErr error, rid string, span *trace.Span) {
	// Everything after the last step — pool accounting, the journal
	// append, release, response assembly and the handoff back from the
	// worker — is the respond phase.
	span.Lap("respond")
	span.End()
	elapsed := span.Duration()
	fail := func(code int, format string, args ...any) {
		s.failures.Inc()
		msg := fmt.Sprintf(format, args...)
		s.traces.add(&RequestTrace{
			ID: rid, Time: time.Now(), Error: msg,
			ElapsedMs: float64(elapsed.Microseconds()) / 1e3,
			Timings:   span.Breakdown(),
		})
		s.log.Warn("request failed", "id", rid, "status", code,
			"elapsedMs", float64(elapsed.Microseconds())/1e3, "error", msg)
		writeError(w, code, "%s", msg)
	}
	var pe *PanicError
	switch {
	case errors.Is(schedErr, ErrOverloaded):
		fail(http.StatusTooManyRequests, "%v", schedErr)
		return
	case errors.Is(schedErr, ErrDraining):
		fail(http.StatusServiceUnavailable, "%v", schedErr)
		return
	case errors.Is(schedErr, ErrQueueTimeout):
		// The deadline expired while queued; no work ran. 503 tells the
		// client to back off and retry, unlike the mid-run 504.
		fail(http.StatusServiceUnavailable, "queue-timeout: %v", schedErr)
		return
	case errors.As(schedErr, &pe):
		// Recovered by the scheduler backstop: the process survived,
		// this request did not.
		s.lastPanic.Store(time.Now().UnixNano())
		fail(http.StatusInternalServerError, "%v", schedErr)
		return
	}
	if derr != nil {
		code := http.StatusUnprocessableEntity
		switch {
		case errors.Is(derr, errAttemptPanic):
			code = http.StatusInternalServerError
		case failpoint.IsInjected(derr):
			// A transient failure that outlived the retries: the request
			// was fine, so tell the client to retry rather than to fix it.
			code = http.StatusServiceUnavailable
		}
		fail(code, "%v", derr)
		return
	}
	if resp == nil {
		// The run was cancelled before producing even a partial report.
		fail(http.StatusGatewayTimeout, "request produced no result: %v", schedErr)
		return
	}
	if resp.Degraded != "" {
		s.degradedResponses.Inc()
		s.lastDegraded.Store(time.Now().UnixNano())
	}
	resp.ElapsedMs = float64(elapsed.Microseconds()) / 1e3
	resp.RequestID = rid
	resp.Timings = span.Breakdown()
	if resp.Degraded != "" {
		// A degraded answer carries its own black box: the solver events
		// leading up to the budget/deadline exit travel with the reply.
		resp.FlightRecorder = resp.events
	}
	if h := s.latencies[resp.Mode]; h != nil {
		h.Observe(elapsed)
	}
	for name, d := range span.PhaseDurations() {
		if h := s.phases[name]; h != nil {
			h.Observe(d)
		}
	}
	s.traces.add(&RequestTrace{
		ID: rid, Time: time.Now(), Mode: resp.Mode, Engine: resp.Engine,
		Complete: resp.Complete, Degraded: resp.Degraded,
		ElapsedMs:      resp.ElapsedMs,
		Timings:        resp.Timings,
		FlightRecorder: resp.events,
	})
	s.log.Info("request", "id", rid, "mode", resp.Mode, "engine", resp.Engine,
		"solutions", len(resp.Solutions), "complete", resp.Complete,
		"degraded", resp.Degraded, "poolHit", resp.PoolHit,
		"elapsedMs", resp.ElapsedMs)
	writeJSON(w, http.StatusOK, resp)
}

// HealthJSON is the GET /healthz reply. Live is process liveness
// (always true when the handler answers). Ready is false once draining
// began — load balancers should stop routing. Degraded means the
// server recently recovered a panic or served an incomplete answer:
// still serving, but worth a look.
type HealthJSON struct {
	OK       bool   `json:"ok"`
	Status   string `json:"status"` // ok | degraded | warming | draining
	Live     bool   `json:"live"`
	Ready    bool   `json:"ready"`
	Degraded bool   `json:"degraded"`
	UptimeMs int64  `json:"uptimeMs"`
	Sessions int    `json:"sessions"`
	Bytes    int64  `json:"bytes"`
	InFlight int64  `json:"inFlight"`
	Queued   int64  `json:"queued"`
	Workers  int    `json:"workers"`

	// Warming: warm-pool replay is still running; not-ready (503), but
	// live. JournalDegraded: the journal disabled itself after an I/O
	// error; serving continues without persistence.
	Warming         bool `json:"warming,omitempty"`
	JournalDegraded bool `json:"journalDegraded,omitempty"`

	PanicsRecovered   int64 `json:"panicsRecovered,omitempty"`
	DegradedResponses int64 `json:"degradedResponses,omitempty"`
}

// recentlyDegraded reports whether a panic or degraded response landed
// within the health window.
func (s *Server) recentlyDegraded() bool {
	cutoff := time.Now().Add(-degradedWindow).UnixNano()
	return s.lastPanic.Load() > cutoff || s.lastDegraded.Load() > cutoff
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	warming := s.warming.Load()
	ready := !s.sched.Draining() && !warming
	jdeg := s.journal.Degraded()
	degraded := s.recentlyDegraded() || jdeg
	status := "ok"
	code := http.StatusOK
	switch {
	case s.sched.Draining():
		status = "draining"
		code = http.StatusServiceUnavailable
	case warming:
		// Not-ready while the warm-pool replay runs — load balancers
		// hold traffic until the pool is rebuilt. Liveness (GET /livez)
		// stays 200 throughout.
		status = "warming"
		code = http.StatusServiceUnavailable
	case degraded:
		status = "degraded"
	}
	writeJSON(w, code, HealthJSON{
		OK:       ready && !degraded,
		Status:   status,
		Live:     true,
		Ready:    ready,
		Degraded: degraded,

		Warming:         warming,
		JournalDegraded: jdeg,
		UptimeMs:        time.Since(s.start).Milliseconds(),
		Sessions:        s.pool.Len(),
		Bytes:           s.pool.TotalBytes(),
		InFlight:        s.sched.InFlight.Value(),
		Queued:          s.sched.Queued.Value(),
		Workers:         s.sched.Workers(),

		PanicsRecovered:   s.panicsRecovered.Value() + s.sched.Panics.Value(),
		DegradedResponses: s.degradedResponses.Value(),
	})
}

// handleLivez is pure process liveness: always 200 while the handler
// can answer, regardless of warming or draining — the counterpart to
// /healthz readiness for orchestrators that separate the two probes.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"live": true})
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.pool.Snapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	metrics.WritePromValue(w, "diag_requests_total", "", s.requests.Value())
	metrics.WritePromValue(w, "diag_failures_total", "", s.failures.Value())
	metrics.WritePromValue(w, "diag_pool_hits_total", "", s.pool.Hits.Value())
	metrics.WritePromValue(w, "diag_pool_misses_total", "", s.pool.Misses.Value())
	metrics.WritePromValue(w, "diag_pool_evictions_total", "", s.pool.Evictions.Value())
	metrics.WritePromValue(w, "diag_pool_sessions", "", s.pool.Sessions.Value())
	metrics.WritePromValue(w, "diag_pool_bytes", "", s.pool.Bytes.Value())
	metrics.WritePromValue(w, "diag_sched_inflight", "", s.sched.InFlight.Value())
	metrics.WritePromValue(w, "diag_sched_queued", "", s.sched.Queued.Value())
	metrics.WritePromValue(w, "diag_sched_rejected_total", "", s.sched.Rejected.Value())
	metrics.WritePromValue(w, "diag_sched_completed_total", "", s.sched.Completed.Value())
	metrics.WritePromValue(w, "diag_sched_queue_timeouts_total", "", s.sched.QueueTimeouts.Value())
	metrics.WritePromValue(w, "diag_panics_recovered", "", s.panicsRecovered.Value()+s.sched.Panics.Value())
	metrics.WritePromValue(w, "diag_cube_retries", "", s.cubeRetries.Value())
	metrics.WritePromValue(w, "diag_degraded_responses", "", s.degradedResponses.Value())
	metrics.WritePromValue(w, "diag_request_retries_total", "", s.requestRetries.Value())
	metrics.WritePromValue(w, "diag_circuit_cache_hits_total", "", s.circuits.Hits.Value())
	metrics.WritePromValue(w, "diag_circuit_cache_misses_total", "", s.circuits.Misses.Value())
	metrics.WritePromValue(w, "diag_circuit_cache_entries", "", int64(s.circuits.Len()))
	// Durability: journal writer counters plus the outcome of the boot
	// replay (all zero when persistence is disabled).
	if s.journal != nil {
		jst := s.journal.SnapshotStats()
		metrics.WritePromValue(w, "diag_journal_appends_total", "", jst.Appends)
		metrics.WritePromValue(w, "diag_journal_appended_bytes_total", "", jst.AppendedBytes)
		metrics.WritePromValue(w, "diag_journal_syncs_total", "", jst.Syncs)
		metrics.WritePromValue(w, "diag_journal_rotations_total", "", jst.Rotations)
		metrics.WritePromValue(w, "diag_journal_compactions_total", "", jst.Compactions)
		metrics.WritePromValue(w, "diag_journal_dropped_total", "", jst.Dropped)
		metrics.WritePromValue(w, "diag_journal_degraded", "", bool01(jst.Degraded))
		metrics.WritePromValue(w, "diag_journal_sealed", "", bool01(jst.Sealed))
	}
	metrics.WritePromValue(w, "diag_replay_sessions_total", "", s.replaySessions.Value())
	metrics.WritePromValue(w, "diag_replay_skipped_total", "", s.replaySkipped.Value())
	metrics.WritePromValue(w, "diag_replay_tests_total", "", s.replayTests.Value())
	metrics.WritePromValue(w, "diag_replay_duration_ms", "", s.replayMillis.Value())
	metrics.WritePromValue(w, "diag_replay_warming", "", bool01(s.warming.Load()))
	if rs := s.replaySt.Load(); rs != nil {
		metrics.WritePromValue(w, "diag_replay_journal_records", "", int64(rs.Records))
		metrics.WritePromValue(w, "diag_replay_corrupt_skipped_total", "", int64(rs.Skipped))
		metrics.WritePromValue(w, "diag_replay_torn_tail_bytes", "", rs.TornTailBytes)
		metrics.WritePromValue(w, "diag_replay_sealed_boot", "", bool01(rs.Sealed))
	}
	// Queue wait and execution are split at the admission boundary, so
	// saturation (growing queue wait, flat exec) is distinguishable from
	// slow diagnoses (flat queue wait, growing exec) at a glance.
	s.sched.QueueWait.WriteProm(w, "diag_queue_wait_seconds", "")
	s.sched.Exec.WriteProm(w, "diag_exec_seconds", "")
	for _, p := range spanPhases {
		s.phases[p].WriteProm(w, "diag_phase_seconds", fmt.Sprintf("phase=%q", p))
	}
	for mode, h := range s.latencies {
		h.WriteProm(w, "diag_request_seconds", fmt.Sprintf("mode=%q", mode))
	}
	// Per-session SAT cost (satellite of cnf.DiagSession.Stats): enough
	// for dashboards to spot a session whose clause DB or solver work is
	// running away.
	for _, info := range s.pool.Snapshot() {
		l := fmt.Sprintf("session=%q", metrics.Escape(info.ID))
		metrics.WritePromValue(w, "diag_session_bytes", l, info.Bytes)
		metrics.WritePromValue(w, "diag_session_uses", l, info.Uses)
		metrics.WritePromValue(w, "diag_session_copies", l, int64(info.Stats.Copies))
		metrics.WritePromValue(w, "diag_session_vars", l, int64(info.Stats.Vars))
		metrics.WritePromValue(w, "diag_session_clauses", l, int64(info.Stats.Clauses))
		metrics.WritePromValue(w, "diag_session_rounds", l, int64(info.Stats.Rounds))
		metrics.WritePromValue(w, "diag_session_budgeted_rounds", l, int64(info.Stats.BudgetedRounds))
		metrics.WritePromValue(w, "diag_session_conflicts", l, info.Stats.Solver.Conflicts)
		metrics.WritePromValue(w, "diag_session_decisions", l, info.Stats.Solver.Decisions)
		metrics.WritePromValue(w, "diag_session_propagations", l, info.Stats.Solver.Propagations)
	}
}

// ScenarioJSON is the GET /scenario reply: a self-contained faulty
// netlist with failing tests, ready to POST to /diagnose. It exists so
// a bare curl (or the load generator) can exercise the service without
// local tooling.
type ScenarioJSON struct {
	Circuit string     `json:"circuit"`
	Bench   string     `json:"bench"`
	Tests   []TestJSON `json:"tests"`
	Sites   []int      `json:"sites"` // actual injected error gates
	K       int        `json:"k"`     // number of injected errors
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("circuit")
	if name == "" {
		name = "s298x"
	}
	inject := intParam(q.Get("inject"), 1)
	seed := int64(intParam(q.Get("seed"), 1))
	count := intParam(q.Get("tests"), 8)
	golden, err := gen.ByName(name)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	faulty, fs, err := faults.Inject(golden, faults.Options{Count: inject, Seed: seed})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "inject: %v", err)
		return
	}
	tests, err := tgen.Random(golden, faulty, tgen.Options{Count: count, Seed: seed})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "no failing tests for this scenario (try another seed): %v", err)
		return
	}
	var sb strings.Builder
	if err := circuit.WriteBench(&sb, faulty); err != nil {
		writeError(w, http.StatusInternalServerError, "render bench: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, ScenarioJSON{
		Circuit: name,
		Bench:   sb.String(),
		Tests:   EncodeTests(tests),
		Sites:   fs.Sites(),
		K:       inject,
	})
}

func bool01(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func intParam(s string, def int) int {
	if s == "" {
		return def
	}
	var v int
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return def
	}
	return v
}
