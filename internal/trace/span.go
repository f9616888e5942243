// Package trace is the service's low-overhead tracing and
// flight-recorder layer. It is dependency-free (stdlib only) and safe
// to thread through every execution layer: sat, cnf, core, and service
// all import it, it imports none of them.
//
// The two halves are deliberately different shapes:
//
//   - Span is the request-side view: a mutex-guarded tree of named
//     phases and child spans carried on context.Context from the HTTP
//     handler down to individual enumeration cubes. Spans are built for
//     code that already allocates (handlers, round setup); every method
//     is nil-receiver safe so un-traced paths pay one pointer test.
//
//   - Recorder is the solver-side view: a fixed ring of packed uint64
//     events written with atomics from inside the search loop's rare
//     event points (restarts, reductions, models, exits). It allocates
//     nothing on the write path and tolerates concurrent writers
//     (cloned solvers share their parent's ring) and concurrent
//     readers (dump-while-solving).
package trace

import (
	"context"
	"sync"
	"time"
)

// Span is one timed region of a request: the whole request, one
// enumeration round, one cube. A span accumulates named phases (flat
// timings within the span), counters (e.g. solver Stats deltas
// captured at round boundaries), and child spans. All
// methods are safe on a nil receiver — hot paths guard tracing with a
// single nil test — and safe for concurrent use, so sharded cube
// workers may attach children to the same parent from many goroutines.
type Span struct {
	mu       sync.Mutex
	name     string
	detail   string
	start    time.Time
	end      time.Time
	lap      time.Time // where the next Lap starts (see Lap)
	phases   []phase
	counters []counter
	children []*Span
}

type phase struct {
	name string
	d    time.Duration
}

type counter struct {
	name string
	v    int64
}

// New starts a root span.
func New(name string) *Span {
	now := time.Now()
	return &Span{name: name, start: now, lap: now}
}

// Child starts and attaches a child span. Returns nil when s is nil,
// so the whole subtree of calls below an un-traced request no-ops.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	c := &Span{name: name, start: now, lap: now}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Phase records a named duration inside the span. Phases with the same
// name accumulate (a round executed k times shows one summed phase).
func (s *Span) Phase(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.phases {
		if s.phases[i].name == name {
			s.phases[i].d += d
			s.mu.Unlock()
			return
		}
	}
	s.phases = append(s.phases, phase{name: name, d: d})
	s.mu.Unlock()
}

// PhaseSince records a phase as the elapsed time since start.
func (s *Span) PhaseSince(name string, start time.Time) {
	if s == nil {
		return
	}
	s.Phase(name, time.Since(start))
}

// Lap records the time since the previous Lap (or since the span
// started) as a phase and moves the lap cursor to now. A request whose
// every step ends in a Lap gets phases that tile its wall time: work
// between two named steps — bookkeeping, a retry, a goroutine handoff,
// a GC pause — lands in the next phase instead of in no phase at all.
func (s *Span) Lap(name string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	d := now.Sub(s.lap)
	s.lap = now
	s.mu.Unlock()
	s.Phase(name, d)
}

// Counter records (accumulating by name) a named integer — solver
// Stats deltas at round boundaries, solution counts, retry counts.
func (s *Span) Counter(name string, v int64) {
	if s == nil || v == 0 {
		return
	}
	s.mu.Lock()
	for i := range s.counters {
		if s.counters[i].name == name {
			s.counters[i].v += v
			s.mu.Unlock()
			return
		}
	}
	s.counters = append(s.counters, counter{name: name, v: v})
	s.mu.Unlock()
}

// SetDetail attaches a short free-form qualifier (e.g. the pool lookup
// outcome "warm-hit" | "cold-build" | "singleflight-wait").
func (s *Span) SetDetail(detail string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.detail = detail
	s.mu.Unlock()
}

// End closes the span. Idempotent; Breakdown on an unended span uses
// the current time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Duration is the span's elapsed (or so-far) time.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// SpanJSON is the wire/JSON form of a span tree — the "timings" field
// of a diagnosis response.
type SpanJSON struct {
	Name       string           `json:"name"`
	Detail     string           `json:"detail,omitempty"`
	DurationMS float64          `json:"durationMs"`
	Phases     []PhaseJSON      `json:"phases,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Children   []*SpanJSON      `json:"children,omitempty"`
}

// PhaseJSON is one named timing inside a span.
type PhaseJSON struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"durationMs"`
}

// PhaseDurations returns the span's own phases as a name → duration
// map (children not included).
func (s *Span) PhaseDurations() map[string]time.Duration {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[string]time.Duration, len(s.phases))
	for _, p := range s.phases {
		m[p.name] = p.d
	}
	return m
}

// Breakdown renders the span tree for the wire. Safe to call while
// children are still being attached (each level locks independently).
func (s *Span) Breakdown() *SpanJSON {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	j := &SpanJSON{
		Name:       s.name,
		Detail:     s.detail,
		DurationMS: ms(s.durationLocked()),
	}
	phases := append([]phase(nil), s.phases...)
	counters := append([]counter(nil), s.counters...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, p := range phases {
		j.Phases = append(j.Phases, PhaseJSON{Name: p.name, DurationMS: ms(p.d)})
	}
	if len(counters) > 0 {
		j.Counters = make(map[string]int64, len(counters))
		for _, c := range counters {
			j.Counters[c.name] = c.v
		}
	}
	for _, c := range children {
		j.Children = append(j.Children, c.Breakdown())
	}
	return j
}

func (s *Span) durationLocked() time.Duration {
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

type spanKey struct{}

type recorderKey struct{}

// NewContext returns ctx carrying the span.
func NewContext(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// FromContext returns the span carried by ctx, or nil. The nil return
// composes with the nil-receiver methods: code below an un-traced
// context calls straight through no-ops.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// WithRecorder returns ctx carrying a flight recorder, for paths (cold
// builds) where the solver is constructed below the context rather
// than held in a warm pool entry.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// RecorderFromContext returns the recorder carried by ctx, or nil.
func RecorderFromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}
