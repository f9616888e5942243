// Package journal is the durability layer of the warm-session service:
// an append-only, length-prefixed, CRC-checksummed write-ahead log of
// session lifecycle events (session built, live test-set replaced,
// eviction, clean-shutdown seal). A restarted server replays the log to
// rebuild its warm pool instead of forcing the fleet back through cold
// builds.
//
// Robustness posture, in order of preference: never lose the process,
// then never lose the log, then never lose a record. Concretely:
//
//   - append or fsync I/O errors flip the writer into a disabled
//     degraded mode (appends are dropped and counted, serving
//     continues) rather than failing requests;
//   - a torn tail — the crash landed mid-write — is truncated on the
//     next open;
//   - a corrupt record mid-log is skipped by scanning forward for the
//     next frame magic, counted, and boot continues;
//   - a log ending in a clean seal needs no tail repair at all.
//
// Segments rotate at Options.SegmentBytes; on rotation the writer is
// compacted: the caller-supplied roster (current pool sessions + live
// test-sets) is snapshotted into the fresh segment and every older
// segment is deleted, so disk usage is bounded by the live roster plus
// one segment of appends — never by journal history.
package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
)

// Failpoints of the durability path, armed like every other point via
// diagserver -failpoints / DIAG_FAILPOINTS (see internal/failpoint).
const (
	// FailpointAppend fires inside Writer.Append before the frame is
	// written: an injected error exercises the degraded-journal mode.
	FailpointAppend = "journal/append"
	// FailpointFsync fires before each file sync.
	FailpointFsync = "journal/fsync"
	// FailpointReplay fires before each session rebuild during warm-pool
	// replay (evaluated by the service layer): an injected failure must
	// skip that session, not abort the boot.
	FailpointReplay = "journal/replay"
)

// Policy selects when appended records reach stable storage.
type Policy int

const (
	// FsyncInterval (the default) syncs on a background timer: bounded
	// loss window, negligible per-append cost.
	FsyncInterval Policy = iota
	// FsyncAlways syncs after every append: no loss window, one disk
	// round-trip per record.
	FsyncAlways
	// FsyncOff never syncs explicitly; the OS flushes on its own
	// schedule. Cheapest, widest loss window.
	FsyncOff
)

func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	default:
		return "interval"
	}
}

// ParsePolicy maps the -journal-fsync flag values.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "off", "none":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("journal: unknown fsync policy %q (always, interval, off)", s)
	}
}

// Options configures a journal directory.
type Options struct {
	// Dir holds the segment files. Created if missing.
	Dir string
	// Fsync selects the durability/latency trade-off (default interval).
	Fsync Policy
	// FsyncInterval is the background sync period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates the active segment once its delta payload
	// (excluding the compaction snapshot it starts with) exceeds this
	// (default 64 MiB).
	SegmentBytes int64
}

// DefaultSegmentBytes is the rotation threshold when unset.
const DefaultSegmentBytes = 64 << 20

// DefaultFsyncInterval is the background sync period when unset.
const DefaultFsyncInterval = 100 * time.Millisecond

// Stats is a point-in-time snapshot of the writer's counters, exposed
// on /metrics as diag_journal_*.
type Stats struct {
	Appends       int64 // records appended (including roster snapshots)
	AppendedBytes int64
	Syncs         int64
	Rotations     int64
	Compactions   int64
	Dropped       int64 // records dropped while degraded
	Degraded      bool
	Sealed        bool
}

// Writer appends lifecycle records to the active segment. All methods
// are safe for concurrent use and nil-receiver safe, so call sites need
// no journal-enabled checks. A Writer that hits an I/O error degrades:
// it stops writing, counts dropped records, and never surfaces the
// failure to the serving path.
type Writer struct {
	mu   sync.Mutex
	opts Options
	f    *os.File
	seq  int   // active segment sequence number
	size int64 // bytes written to the active segment
	base int64 // bytes of the segment's leading compaction snapshot

	sealed   bool
	degraded atomic.Bool

	appends, appendedBytes atomic.Int64
	syncs, dirty           atomic.Int64
	rotations, compactions atomic.Int64
	dropped                atomic.Int64
	stopc                  chan struct{}
	tickerDone             sync.WaitGroup
	scratch                []byte
}

func segmentName(seq int) string { return fmt.Sprintf("diag-%08d.wal", seq) }

// segmentSeq parses a segment filename, reporting ok=false for foreign
// files (which Open ignores rather than deleting).
func segmentSeq(name string) (int, bool) {
	var seq int
	if _, err := fmt.Sscanf(name, "diag-%08d.wal", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// Open reads every segment in opts.Dir, folds the records into the
// live-session State, repairs a torn tail (unless the log is sealed),
// and returns a Writer appending to the last segment. A missing or
// empty directory yields an empty State and a fresh journal. Unreadable
// or corrupt stretches are counted in State.Skipped — only a directory
// that cannot be created or written at all fails the open.
func Open(opts Options) (*Writer, *State, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := segmentSeq(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)

	st := &State{}
	fold := newFolder()
	lastSeq := 0
	var lastValidEnd int64
	var lastSize int64
	for i, seq := range seqs {
		path := filepath.Join(opts.Dir, segmentName(seq))
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			// An unreadable segment is a corrupt stretch, not a boot
			// failure: count it and keep folding the rest.
			st.Skipped++
			continue
		}
		res := DecodeAll(data, fold.apply)
		st.Segments++
		st.Records += res.Records
		st.Skipped += res.Skipped
		if i == len(seqs)-1 {
			lastSeq = seq
			lastValidEnd = res.ValidEnd
			lastSize = int64(len(data))
			st.Sealed = res.Sealed
			if res.TornTail {
				st.TornTailBytes = int64(len(data)) - res.ValidEnd
			}
		} else if res.TornTail {
			// Mid-journal segments with trailing garbage (a crash during
			// rotation): their tail is unrecoverable, count it.
			st.Skipped++
		}
	}
	st.Sessions = fold.state()

	w := &Writer{opts: opts, stopc: make(chan struct{})}
	if lastSeq == 0 {
		w.seq = 1
		if err := w.createSegment(); err != nil {
			return nil, nil, err
		}
	} else {
		w.seq = lastSeq
		path := filepath.Join(opts.Dir, segmentName(lastSeq))
		// A sealed log needs no tail repair; an unsealed one truncates
		// to the last intact record before appending resumes.
		if !st.Sealed && lastValidEnd < lastSize {
			if err := os.Truncate(path, lastValidEnd); err != nil {
				return nil, nil, fmt.Errorf("journal: repair torn tail: %w", err)
			}
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		w.f = f
		w.size = lastValidEnd
	}
	if opts.Fsync == FsyncInterval {
		w.tickerDone.Add(1)
		go w.syncLoop()
	}
	return w, st, nil
}

func (w *Writer) createSegment() error {
	f, err := os.OpenFile(filepath.Join(w.opts.Dir, segmentName(w.seq)),
		os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.f = f
	w.size = 0
	w.base = 0
	syncDir(w.opts.Dir)
	return nil
}

// syncDir makes directory-entry changes (segment create/delete) durable
// on platforms that support it; best effort everywhere else.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

func (w *Writer) syncLoop() {
	defer w.tickerDone.Done()
	t := time.NewTicker(w.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stopc:
			return
		case <-t.C:
			if w.dirty.Swap(0) > 0 {
				w.Sync()
			}
		}
	}
}

// Append journals one record. It never returns an error: a failed write
// (including an injected journal/append failure) flips the writer into
// degraded mode, where this and all future records are dropped and
// counted instead. The returned rotated flag tells the owner a segment
// boundary was crossed — the cue to Compact with a fresh roster.
func (w *Writer) Append(rec Record) (rotated bool) {
	if w == nil || w.degraded.Load() {
		if w != nil {
			w.dropped.Add(1)
		}
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sealed || w.degraded.Load() {
		w.dropped.Add(1)
		return false
	}
	if err := failpoint.Inject(FailpointAppend); err != nil {
		w.degradeLocked(err)
		return false
	}
	frame, err := appendFrame(w.scratch[:0], &rec)
	w.scratch = frame[:0]
	if err != nil {
		w.degradeLocked(err)
		return false
	}
	if w.size-w.base+int64(len(frame)) > w.opts.SegmentBytes && w.size > w.base {
		if err := w.rotateLocked(); err != nil {
			w.degradeLocked(err)
			return false
		}
		rotated = true
	}
	if err := w.writeLocked(frame); err != nil {
		w.degradeLocked(err)
		return false
	}
	if w.opts.Fsync == FsyncAlways {
		if err := w.syncLocked(); err != nil {
			w.degradeLocked(err)
			return false
		}
	} else {
		w.dirty.Add(1)
	}
	return rotated
}

func (w *Writer) writeLocked(frame []byte) error {
	n, err := w.f.Write(frame)
	w.size += int64(n)
	if err != nil {
		return err
	}
	w.appends.Add(1)
	w.appendedBytes.Add(int64(len(frame)))
	return nil
}

func (w *Writer) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.seq++
	if err := w.createSegment(); err != nil {
		return err
	}
	w.rotations.Add(1)
	return nil
}

func (w *Writer) syncLocked() error {
	if err := failpoint.Inject(FailpointFsync); err != nil {
		return err
	}
	if w.opts.Fsync == FsyncOff {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs.Add(1)
	return nil
}

// degradeLocked disables the journal after an I/O failure: serving
// must continue, so the error is absorbed here and surfaced only
// through Degraded()/Stats and the health endpoint.
func (w *Writer) degradeLocked(err error) {
	_ = err
	w.degraded.Store(true)
	w.dropped.Add(1)
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
}

// Sync flushes appended records to stable storage. Errors degrade the
// writer rather than propagate.
func (w *Writer) Sync() {
	if w == nil || w.degraded.Load() {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sealed || w.degraded.Load() || w.f == nil {
		return
	}
	if err := w.syncLocked(); err != nil {
		w.degradeLocked(err)
	}
}

// Compact snapshots the live roster into a fresh segment and deletes
// every older one: replay cost and disk usage stay bounded by the live
// pool, never by journal history. The caller owns roster consistency —
// it must hold whatever lock serializes its Append calls, so no delta
// can land between the roster capture and the snapshot.
func (w *Writer) Compact(roster []Record) {
	if w == nil || w.degraded.Load() {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sealed || w.degraded.Load() {
		return
	}
	old := w.seq
	if err := w.rotateLocked(); err != nil {
		w.degradeLocked(err)
		return
	}
	for i := range roster {
		frame, err := appendFrame(w.scratch[:0], &roster[i])
		w.scratch = frame[:0]
		if err != nil {
			w.degradeLocked(err)
			return
		}
		if err := w.writeLocked(frame); err != nil {
			w.degradeLocked(err)
			return
		}
	}
	if err := w.syncLocked(); err != nil {
		w.degradeLocked(err)
		return
	}
	// The snapshot is durable; the history it replaces can go.
	w.base = w.size
	for seq := old; seq >= 1; seq-- {
		path := filepath.Join(w.opts.Dir, segmentName(seq))
		if err := os.Remove(path); err != nil {
			break // already gone (or undeletable): stop scanning down
		}
	}
	syncDir(w.opts.Dir)
	w.compactions.Add(1)
}

// Seal appends the clean-shutdown record, syncs regardless of policy,
// and closes the journal. The next Open sees Sealed state and skips
// torn-tail repair. Appends after Seal are dropped.
func (w *Writer) Seal() {
	if w == nil {
		return
	}
	w.stopTicker()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sealed || w.degraded.Load() || w.f == nil {
		w.sealed = true
		return
	}
	frame, err := appendFrame(w.scratch[:0], &Record{Type: TypeSeal})
	if err == nil {
		err = func() error {
			if werr := w.writeLocked(frame); werr != nil {
				return werr
			}
			if w.opts.Fsync != FsyncOff {
				if serr := w.f.Sync(); serr != nil {
					return serr
				}
				w.syncs.Add(1)
			}
			return nil
		}()
	}
	if err != nil {
		w.degradeLocked(err)
		return
	}
	w.sealed = true
	_ = w.f.Close()
	w.f = nil
}

// Close flushes and closes without sealing (the log will get a torn-
// tail check on the next open — which finds a clean end).
func (w *Writer) Close() {
	if w == nil {
		return
	}
	w.stopTicker()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return
	}
	if err := w.syncLocked(); err != nil {
		w.degradeLocked(err)
		return
	}
	_ = w.f.Close()
	w.f = nil
	w.sealed = true
}

func (w *Writer) stopTicker() {
	w.mu.Lock()
	select {
	case <-w.stopc:
	default:
		close(w.stopc)
	}
	w.mu.Unlock()
	w.tickerDone.Wait()
}

// Degraded reports whether the journal disabled itself after an I/O
// failure.
func (w *Writer) Degraded() bool { return w != nil && w.degraded.Load() }

// SnapshotStats returns the writer's counters.
func (w *Writer) SnapshotStats() Stats {
	if w == nil {
		return Stats{}
	}
	w.mu.Lock()
	sealed := w.sealed
	w.mu.Unlock()
	return Stats{
		Appends:       w.appends.Load(),
		AppendedBytes: w.appendedBytes.Load(),
		Syncs:         w.syncs.Load(),
		Rotations:     w.rotations.Load(),
		Compactions:   w.compactions.Load(),
		Dropped:       w.dropped.Load(),
		Degraded:      w.degraded.Load(),
		Sealed:        sealed,
	}
}
