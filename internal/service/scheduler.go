package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// ErrOverloaded is returned when the admission queue is full — the
// backpressure signal the HTTP layer maps to 429.
var ErrOverloaded = errors.New("service: admission queue full")

// ErrDraining is returned once Drain has begun; new work is refused
// while queued work finishes.
var ErrDraining = errors.New("service: server draining")

// ErrQueueTimeout is returned when a request's deadline expired while
// it waited in the admission queue: the worker skipped it without
// running any diagnosis. Distinct from a deadline that fires mid-run
// (which still yields partial results) so the HTTP layer can answer
// 503 retry-later instead of 504.
var ErrQueueTimeout = errors.New("service: request deadline expired while queued")

// PanicError wraps a panic recovered from a request function. The
// worker survives (the pool never shrinks from a poisoned request);
// the caller decides how to report it.
type PanicError struct{ Val any }

func (e *PanicError) Error() string { return fmt.Sprintf("service: request panicked: %v", e.Val) }

// SchedulerOptions configures a Scheduler.
type SchedulerOptions struct {
	// Workers is the number of concurrent request executors
	// (0 = GOMAXPROCS). Diagnosis is CPU-bound, so more workers than
	// cores only adds queueing inside the SAT solver's time slices.
	Workers int
	// Queue is the admission queue depth beyond the in-flight workers
	// (0 = 64). A full queue rejects with ErrOverloaded instead of
	// buffering unbounded work.
	Queue int
	// DefaultTimeout bounds requests that carry no deadline of their own
	// (0 = no default). MaxTimeout clamps client-supplied budgets.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
}

type task struct {
	ctx      context.Context
	fn       func(context.Context)
	enqueued time.Time
	done     chan struct{}
	skipped  bool // deadline expired while queued; fn never ran
	panicked any  // recovered panic value from fn, nil if none
}

// Scheduler runs submitted requests on a bounded worker pool with an
// admission queue: full queue → immediate rejection (backpressure),
// Drain → graceful completion of everything admitted.
type Scheduler struct {
	opts  SchedulerOptions
	tasks chan *task
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool

	// Serving counters, exposed on /metrics. QueueWait and Exec split
	// end-to-end latency at the admission boundary: time spent waiting
	// for a worker versus time spent actually diagnosing. A healthy
	// server has Exec ≈ request latency; a saturated one shows the gap
	// in QueueWait.
	QueueWait     metrics.Histogram
	Exec          metrics.Histogram
	InFlight      metrics.Gauge
	Queued        metrics.Gauge
	Rejected      metrics.Counter
	Completed     metrics.Counter
	QueueTimeouts metrics.Counter
	Panics        metrics.Counter
}

// NewScheduler starts the worker pool.
func NewScheduler(opts SchedulerOptions) *Scheduler {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Queue <= 0 {
		opts.Queue = 64
	}
	s := &Scheduler{opts: opts, tasks: make(chan *task, opts.Queue)}
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Workers returns the worker-pool size.
func (s *Scheduler) Workers() int { return s.opts.Workers }

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for t := range s.tasks {
		s.Queued.Add(-1)
		s.QueueWait.Observe(time.Since(t.enqueued))
		trace.FromContext(t.ctx).Lap("queue")
		// A request whose client already gave up is not worth starting:
		// skip it without burning the worker slot on doomed SAT work.
		if t.ctx.Err() != nil {
			t.skipped = true
			s.QueueTimeouts.Inc()
		} else {
			s.InFlight.Add(1)
			execStart := time.Now()
			s.runTask(t)
			s.Exec.Observe(time.Since(execStart))
			s.InFlight.Add(-1)
			s.Completed.Inc()
		}
		close(t.done)
	}
}

// runTask executes one request function, converting a panic into a
// recorded value instead of killing the worker (and with it the whole
// process): one poisoned request must not take the service down.
func (s *Scheduler) runTask(t *task) {
	defer func() {
		if v := recover(); v != nil {
			t.panicked = v
			s.Panics.Inc()
		}
	}()
	t.fn(t.ctx)
}

// RequestContext derives the execution context of one request from the
// client-supplied budget: clamped to MaxTimeout, defaulted to
// DefaultTimeout when absent.
func (s *Scheduler) RequestContext(parent context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	if budget <= 0 {
		budget = s.opts.DefaultTimeout
	}
	if s.opts.MaxTimeout > 0 && (budget <= 0 || budget > s.opts.MaxTimeout) {
		budget = s.opts.MaxTimeout
	}
	if budget <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, budget)
}

// Do admits fn and blocks until a worker has finished it (or skipped it
// because ctx expired while queued). Admission fails fast with
// ErrOverloaded on a full queue and ErrDraining after Drain began.
func (s *Scheduler) Do(ctx context.Context, fn func(context.Context)) error {
	t := &task{ctx: ctx, fn: fn, enqueued: time.Now(), done: make(chan struct{})}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.Rejected.Inc()
		return ErrDraining
	}
	select {
	case s.tasks <- t:
		s.Queued.Add(1)
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.Rejected.Inc()
		return ErrOverloaded
	}
	// Wait for the worker even when ctx fires mid-run: fn observes the
	// same ctx and aborts promptly, and the caller must not touch the
	// result before the worker is done with it.
	<-t.done
	if t.skipped {
		// Both sentinels stay matchable: ErrQueueTimeout for the HTTP
		// status mapping, the ctx cause for callers watching their own
		// context.
		return fmt.Errorf("%w: %w", ErrQueueTimeout, context.Cause(t.ctx))
	}
	if t.panicked != nil {
		return &PanicError{Val: t.panicked}
	}
	return ctx.Err()
}

// Draining reports whether Drain has begun (readiness signal).
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission and waits for every admitted task to finish,
// up to ctx. It is idempotent; concurrent Do calls race cleanly (they
// either get in before the cut or see ErrDraining).
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.tasks) // workers drain the queue, then exit
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
