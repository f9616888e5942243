package trace

import (
	"fmt"
	"sync/atomic"
	"time"
)

// EventKind tags one flight-recorder event. The kinds cover the rare
// control-flow points of the CDCL search — never per-propagation or
// per-decision work — so recording costs one atomic store per restart
// or model, not per conflict.
type EventKind uint8

const (
	// EvNone marks an empty ring slot.
	EvNone EventKind = iota
	// EvRestart is a Luby restart.
	EvRestart
	// EvReduceDB is a learnt-clause database reduction.
	EvReduceDB
	// EvModel is a satisfying assignment found (one enumerated
	// solution, or the final model of a plain Solve).
	EvModel
	// EvBudgetExit is a search abandoned on the conflict budget.
	EvBudgetExit
	// EvDeadlineExit is a search abandoned on the wall-clock deadline.
	EvDeadlineExit
	// EvCtxExit is a search abandoned on context cancellation.
	EvCtxExit
	// EvUnsat is a search that exhausted its space (final UNSAT —
	// during enumeration this is the normal "round complete" event).
	EvUnsat
	evKinds
)

var kindNames = [evKinds]string{
	EvNone:         "none",
	EvRestart:      "restart",
	EvReduceDB:     "reduce-db",
	EvModel:        "model",
	EvBudgetExit:   "budget-exit",
	EvDeadlineExit: "deadline-exit",
	EvCtxExit:      "ctx-exit",
	EvUnsat:        "unsat",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event packing: one uint64 per event.
//
//	bits 63..58  kind        (6 bits)
//	bits 57..36  wall ms     (22 bits, saturating: ~70 min since epoch)
//	bits 35..0   conflicts   (36 bits, saturating: ~6.8e10 conflicts)
//
// Both clocks saturate instead of wrapping so a long-lived warm
// session degrades to "a long time in" rather than lying.
const (
	kindShift = 58
	wallShift = 36
	wallMax   = 1<<22 - 1
	confMax   = 1<<36 - 1
)

func pack(kind EventKind, wallMS uint64, conflicts uint64) uint64 {
	if wallMS > wallMax {
		wallMS = wallMax
	}
	if conflicts > confMax {
		conflicts = confMax
	}
	return uint64(kind)<<kindShift | wallMS<<wallShift | conflicts
}

// Event is one decoded flight-recorder entry.
type Event struct {
	// Kind is the event tag (EventKind.String()).
	Kind string `json:"kind"`
	// WallMS is coarse wall time in milliseconds since the recorder's
	// epoch (solver construction).
	WallMS uint32 `json:"wallMs"`
	// Conflicts is the solver's conflict clock at the event.
	Conflicts uint64 `json:"conflicts"`
}

// DefaultRecorderSize is the ring capacity used when NewRecorder is
// given a non-positive size. 256 packed events cover the full restart/
// reduce/model history of typical diagnosis rounds and cost 2KB.
const DefaultRecorderSize = 256

// Recorder is a fixed-size ring of packed solver events. Writes are
// one atomic add plus one atomic store, allocation-free, and safe from
// multiple goroutines — cloned solvers (shard workers) share their
// parent's recorder, interleaving their events on the same
// conflict-stamped timeline. Reads (Snapshot, Since) are safe
// concurrently with writes: each slot is a single word, so a dump
// taken mid-solve sees a consistent recent window, never a torn event.
type Recorder struct {
	ring  []atomic.Uint64
	next  atomic.Uint64 // total events ever written
	epoch time.Time
}

// NewRecorder returns a recorder with capacity size (rounded up to a
// power of two; <=0 selects DefaultRecorderSize).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Recorder{ring: make([]atomic.Uint64, n), epoch: time.Now()}
}

// Record appends one event stamped with the conflict clock and coarse
// wall time. Nil-safe: recording into a nil recorder is a no-op, so
// solver code guards with a single nil test.
func (r *Recorder) Record(kind EventKind, conflicts uint64) {
	if r == nil {
		return
	}
	w := pack(kind, uint64(time.Since(r.epoch)/time.Millisecond), conflicts)
	i := r.next.Add(1) - 1
	r.ring[i&uint64(len(r.ring)-1)].Store(w)
}

// Len reports how many events have ever been recorded (not capped at
// the ring size).
func (r *Recorder) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Cursor marks the current write position. A caller serving requests
// on a long-lived solver takes a cursor before the run and passes it
// to Since afterwards to extract just that request's events.
func (r *Recorder) Cursor() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Since decodes the events written at or after cursor, oldest first.
// When more than a ring's worth of events were written since the
// cursor, only the most recent ring-full survives (it is a flight
// recorder, not a log). Safe concurrently with writers.
func (r *Recorder) Since(cursor uint64) []Event {
	if r == nil {
		return nil
	}
	hi := r.next.Load()
	lo := cursor
	if hi-lo > uint64(len(r.ring)) {
		lo = hi - uint64(len(r.ring))
	}
	if lo >= hi {
		return nil
	}
	out := make([]Event, 0, hi-lo)
	for i := lo; i < hi; i++ {
		w := r.ring[i&uint64(len(r.ring)-1)].Load()
		kind := EventKind(w >> kindShift)
		if kind == EvNone {
			continue
		}
		out = append(out, Event{
			Kind:      kind.String(),
			WallMS:    uint32(w >> wallShift & wallMax),
			Conflicts: w & confMax,
		})
	}
	return out
}

// Snapshot decodes the most recent ring-full of events, oldest first.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	hi := r.next.Load()
	lo := uint64(0)
	if hi > uint64(len(r.ring)) {
		lo = hi - uint64(len(r.ring))
	}
	return r.Since(lo)
}
