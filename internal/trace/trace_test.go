package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	if c := s.Child("x"); c != nil {
		t.Fatalf("nil.Child = %v, want nil", c)
	}
	s.Phase("p", time.Millisecond)
	s.PhaseSince("q", time.Now())
	s.Lap("l")
	s.Counter("c", 3)
	s.SetDetail("d")
	s.End()
	if d := s.Duration(); d != 0 {
		t.Fatalf("nil.Duration = %v, want 0", d)
	}
	if b := s.Breakdown(); b != nil {
		t.Fatalf("nil.Breakdown = %v, want nil", b)
	}
	if m := s.PhaseDurations(); m != nil {
		t.Fatalf("nil.PhaseDurations = %v, want nil", m)
	}
}

func TestSpanLifecycle(t *testing.T) {
	root := New("request")
	root.SetDetail("warm-hit")
	root.Phase("queue", 2*time.Millisecond)
	root.Phase("encode", 3*time.Millisecond)
	root.Phase("encode", 1*time.Millisecond) // accumulates
	root.Counter("conflicts", 10)
	root.Counter("conflicts", 5)
	child := root.Child("round")
	child.Phase("solve", 4*time.Millisecond)
	child.End()
	root.End()
	root.End() // idempotent

	b := root.Breakdown()
	if b.Name != "request" || b.Detail != "warm-hit" {
		t.Fatalf("root = %+v", b)
	}
	if len(b.Phases) != 2 {
		t.Fatalf("phases = %+v, want 2", b.Phases)
	}
	if b.Phases[1].Name != "encode" || b.Phases[1].DurationMS != 4 {
		t.Fatalf("encode phase = %+v, want 4ms", b.Phases[1])
	}
	if b.Counters["conflicts"] != 15 {
		t.Fatalf("counters = %+v, want conflicts=15", b.Counters)
	}
	if len(b.Children) != 1 || b.Children[0].Name != "round" {
		t.Fatalf("children = %+v", b.Children)
	}
	if b.Children[0].Phases[0].DurationMS != 4 {
		t.Fatalf("child solve = %+v", b.Children[0].Phases)
	}
	m := root.PhaseDurations()
	if m["queue"] != 2*time.Millisecond || m["encode"] != 4*time.Millisecond {
		t.Fatalf("PhaseDurations = %v", m)
	}
}

// TestSpanLapTilesWallTime: consecutive laps cover the span from its
// start without gaps or overlap, a repeated lap name accumulates, and an
// explicit Phase does not move the lap cursor.
func TestSpanLapTilesWallTime(t *testing.T) {
	s := New("request")
	time.Sleep(2 * time.Millisecond)
	s.Lap("queue")
	s.Phase("extra", time.Hour) // outside the lap sequence
	time.Sleep(time.Millisecond)
	s.Lap("solve")
	time.Sleep(time.Millisecond)
	s.Lap("queue")
	s.End()

	m := s.PhaseDurations()
	if m["queue"] < 3*time.Millisecond || m["solve"] < time.Millisecond {
		t.Fatalf("laps = %v, want queue >= 3ms and solve >= 1ms", m)
	}
	if sum := m["queue"] + m["solve"]; sum > s.Duration() {
		t.Fatalf("laps sum to %v, more than the span's %v", sum, s.Duration())
	}
}

func TestSpanContext(t *testing.T) {
	if s := FromContext(context.Background()); s != nil {
		t.Fatalf("FromContext(empty) = %v, want nil", s)
	}
	if s := FromContext(nil); s != nil { //nolint:staticcheck // nil ctx tolerance is the point
		t.Fatalf("FromContext(nil) = %v, want nil", s)
	}
	root := New("r")
	ctx := NewContext(context.Background(), root)
	if s := FromContext(ctx); s != root {
		t.Fatalf("FromContext = %v, want root", s)
	}
	rec := NewRecorder(16)
	ctx = WithRecorder(ctx, rec)
	if got := RecorderFromContext(ctx); got != rec {
		t.Fatalf("RecorderFromContext = %v, want rec", got)
	}
	if got := RecorderFromContext(context.Background()); got != nil {
		t.Fatalf("RecorderFromContext(empty) = %v, want nil", got)
	}
}

// Concurrent cube workers attach children and phases to one shared
// parent; run under -race this is the goroutine-safety proof.
func TestSpanConcurrentChildren(t *testing.T) {
	root := New("round")
	var wg sync.WaitGroup
	const workers, cubes = 8, 20
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < cubes; c++ {
				cs := root.Child("cube")
				cs.Phase("solve", time.Microsecond)
				cs.Counter("solutions", 1)
				cs.End()
				root.Counter("cubes", 1)
			}
		}()
	}
	// Dump concurrently with the writers: Breakdown must be safe on a
	// live span tree.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = root.Breakdown()
		}
	}()
	wg.Wait()
	<-done
	root.End()
	b := root.Breakdown()
	if len(b.Children) != workers*cubes {
		t.Fatalf("children = %d, want %d", len(b.Children), workers*cubes)
	}
	if b.Counters["cubes"] != workers*cubes {
		t.Fatalf("cubes counter = %d, want %d", b.Counters["cubes"], workers*cubes)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(EvRestart, 1)
	if r.Len() != 0 || r.Cursor() != 0 {
		t.Fatal("nil recorder not empty")
	}
	if ev := r.Since(0); ev != nil {
		t.Fatalf("nil.Since = %v", ev)
	}
	if ev := r.Snapshot(); ev != nil {
		t.Fatalf("nil.Snapshot = %v", ev)
	}
}

func TestRecorderBasic(t *testing.T) {
	r := NewRecorder(16)
	r.Record(EvRestart, 5)
	r.Record(EvModel, 9)
	r.Record(EvUnsat, 12)
	ev := r.Snapshot()
	if len(ev) != 3 {
		t.Fatalf("snapshot = %v, want 3 events", ev)
	}
	want := []struct {
		kind string
		conf uint64
	}{{"restart", 5}, {"model", 9}, {"unsat", 12}}
	for i, w := range want {
		if ev[i].Kind != w.kind || ev[i].Conflicts != w.conf {
			t.Fatalf("event %d = %+v, want %+v", i, ev[i], w)
		}
	}
}

func TestRecorderCursorSince(t *testing.T) {
	r := NewRecorder(16)
	r.Record(EvRestart, 1)
	cur := r.Cursor()
	r.Record(EvModel, 2)
	r.Record(EvUnsat, 3)
	ev := r.Since(cur)
	if len(ev) != 2 || ev[0].Kind != "model" || ev[1].Kind != "unsat" {
		t.Fatalf("Since(cursor) = %v", ev)
	}
	if ev := r.Since(r.Cursor()); len(ev) != 0 {
		t.Fatalf("Since(now) = %v, want empty", ev)
	}
}

func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 100; i++ {
		r.Record(EvRestart, uint64(i))
	}
	ev := r.Snapshot()
	if len(ev) != 8 {
		t.Fatalf("snapshot after wrap = %d events, want 8", len(ev))
	}
	for i, e := range ev {
		if want := uint64(92 + i); e.Conflicts != want {
			t.Fatalf("event %d conflicts = %d, want %d", i, e.Conflicts, want)
		}
	}
	// A stale cursor (further back than the ring holds) yields the
	// most recent ring-full, not garbage.
	if ev := r.Since(0); len(ev) != 8 || ev[0].Conflicts != 92 {
		t.Fatalf("Since(stale) = %v", ev)
	}
}

func TestRecorderSaturation(t *testing.T) {
	r := NewRecorder(4)
	r.Record(EvModel, 1<<40) // above the 36-bit conflict field
	ev := r.Snapshot()
	if len(ev) != 1 || ev[0].Conflicts != confMax {
		t.Fatalf("saturated event = %v, want conflicts=%d", ev, uint64(confMax))
	}
	if got := pack(EvModel, 1<<30, 0) >> wallShift & wallMax; got != wallMax {
		t.Fatalf("wall saturation = %d, want %d", got, uint64(wallMax))
	}
}

// Concurrent writers (cloned solvers sharing one ring) and a
// concurrent dumper; run under -race this is the dump-while-solving
// safety proof.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	const writers, events = 4, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				r.Record(EvRestart, uint64(w*events+i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, e := range r.Snapshot() {
				if e.Kind == "none" {
					t.Error("decoded an empty slot")
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Len(); got != writers*events {
		t.Fatalf("Len = %d, want %d", got, writers*events)
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EvNone; k < evKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if got := EventKind(63).String(); got != "kind(63)" {
		t.Fatalf("unknown kind = %q", got)
	}
}

func BenchmarkRecorderRecord(b *testing.B) {
	r := NewRecorder(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(EvRestart, uint64(i))
	}
}

func BenchmarkRecorderRecordNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(EvRestart, uint64(i))
	}
}
