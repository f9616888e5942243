package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/failpoint"
)

func testTests(n, from int) []TestRec {
	out := make([]TestRec, n)
	for i := range out {
		out[i] = TestRec{Vector: "0101", Output: from + i, Want: i%2 == 0}
	}
	return out
}

func built(key string) Record {
	return Record{
		Type: TypeSessionBuilt, Key: key, Fingerprint: "fp-" + key,
		Bench: "# bench " + key, MaxK: 4,
	}
}

// readState reopens the directory read-only-ish (open then close) and
// returns the folded state.
func readState(t *testing.T, dir string) *State {
	t.Helper()
	w, st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	w.Close()
	return st
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sessions) != 0 || st.Records != 0 {
		t.Fatalf("fresh journal not empty: %+v", st)
	}
	w.Append(built("a"))
	w.Append(Record{Type: TypeTestsAdded, Key: "a", Reset: true, Tests: testTests(3, 0), K: 2})
	w.Append(built("b"))
	w.Append(Record{Type: TypeTestsAdded, Key: "b", Reset: true, Tests: testTests(2, 10)})
	// Incremental edit on a, in the retract+delta form older servers
	// wrote (the fold still reads it): retract position 1, append one test.
	w.Append(Record{Type: TypeTestsRetracted, Key: "a", Removed: []int{1}})
	w.Append(Record{Type: TypeTestsAdded, Key: "a", Tests: testTests(1, 100)})
	// c is built then evicted: must not replay.
	w.Append(built("c"))
	w.Append(Record{Type: TypeSessionEvicted, Key: "c"})
	w.Close()

	st = readState(t, dir)
	if len(st.Sessions) != 2 {
		t.Fatalf("live roster: got %d sessions, want 2 (evicted c must be gone): %+v", len(st.Sessions), st.Sessions)
	}
	// MRU order: a was touched last (seq 6) after b (seq 4).
	if st.Sessions[0].Key != "a" || st.Sessions[1].Key != "b" {
		t.Fatalf("MRU order: got %s,%s want a,b", st.Sessions[0].Key, st.Sessions[1].Key)
	}
	a := st.Sessions[0]
	if len(a.Tests) != 3 {
		t.Fatalf("a live tests: got %d want 3 (3 reset - 1 retracted + 1 added)", len(a.Tests))
	}
	if a.Tests[0].Output != 0 || a.Tests[1].Output != 2 || a.Tests[2].Output != 100 {
		t.Fatalf("a test fold wrong: %+v", a.Tests)
	}
	if a.K != 2 || a.MaxK != 4 || a.Bench != "# bench a" || a.Fingerprint != "fp-a" {
		t.Fatalf("a metadata wrong: %+v", a)
	}
	if st.Skipped != 0 || st.TornTailBytes != 0 || st.Sealed {
		t.Fatalf("clean log reported damage: %+v", st)
	}
}

func TestRebuildResetsSession(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(built("a"))
	w.Append(Record{Type: TypeTestsAdded, Key: "a", Reset: true, Tests: testTests(3, 0)})
	// Ladder rebuild journals as a fresh build with a wider ladder...
	reb := built("a")
	reb.MaxK = 8
	w.Append(reb)
	// ...followed by the re-activation of the request's test-set.
	w.Append(Record{Type: TypeTestsAdded, Key: "a", Reset: true, Tests: testTests(2, 50)})
	w.Close()

	st := readState(t, dir)
	if len(st.Sessions) != 1 || st.Sessions[0].MaxK != 8 || len(st.Sessions[0].Tests) != 2 {
		t.Fatalf("rebuild fold wrong: %+v", st.Sessions)
	}
}

// TestSessionStateRecordsRoundTrip: Records is the inverse of the fold.
// Appending the records of any sequence of states of one session, or
// compacting to the last state's records, folds back to exactly that
// last state — including an empty test set and a ladder rebuild (a
// second session-built with a larger MaxK).
func TestSessionStateRecordsRoundTrip(t *testing.T) {
	base := SessionState{Key: "k", Fingerprint: "fp-k", Bench: "# bench k", MaxK: 4}
	withTests := base
	withTests.Tests, withTests.K = testTests(3, 0), 2
	empty := base
	empty.K = 3
	rebuilt := withTests
	rebuilt.MaxK, rebuilt.Tests, rebuilt.K = 6, testTests(2, 40), 5
	cases := map[string][]SessionState{
		"tests":         {withTests},
		"empty":         {empty},
		"empty, no run": {base},
		"edit":          {withTests, empty, withTests},
		"rebuild":       {withTests, rebuilt},
	}
	for name, history := range cases {
		dir := t.TempDir()
		w, _, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range history {
			for _, rec := range st.Records() {
				w.Append(rec)
			}
		}
		want := history[len(history)-1]
		checkFolded(t, name+"/append", readState(t, dir), want)
		w.Compact(want.Records())
		w.Close()
		checkFolded(t, name+"/compact", readState(t, dir), want)
	}
}

func checkFolded(t *testing.T, name string, st *State, want SessionState) {
	t.Helper()
	if len(st.Sessions) != 1 {
		t.Fatalf("%s: folded %d sessions, want 1", name, len(st.Sessions))
	}
	got := st.Sessions[0]
	got.LastSeq = 0
	if len(got.Tests) == 0 && len(want.Tests) == 0 {
		got.Tests, want.Tests = nil, nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: fold of Records\n got %+v\nwant %+v", name, got, want)
	}
}

func TestSealedLogSkipsTailRepair(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(built("a"))
	w.Append(Record{Type: TypeTestsAdded, Key: "a", Reset: true, Tests: testTests(2, 0)})
	w.Seal()
	if got := w.SnapshotStats(); !got.Sealed {
		t.Fatalf("writer not sealed after Seal: %+v", got)
	}
	if w.Append(built("x")); w.SnapshotStats().Dropped == 0 {
		t.Fatal("append after Seal was not dropped")
	}

	seg := filepath.Join(dir, segmentName(1))
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	w2, st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !st.Sealed {
		t.Fatalf("sealed log not detected: %+v", st)
	}
	if st.TornTailBytes != 0 || st.Skipped != 0 {
		t.Fatalf("sealed log reported tail damage: %+v", st)
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() != after.Size() {
		t.Fatalf("sealed segment was modified on reopen: %d -> %d bytes", before.Size(), after.Size())
	}
	if len(st.Sessions) != 1 || len(st.Sessions[0].Tests) != 2 {
		t.Fatalf("sealed replay lost state: %+v", st.Sessions)
	}
	// The reopened writer keeps appending after a mid-log seal.
	w2.Append(built("b"))
	w2.Close()
	st = readState(t, dir)
	if len(st.Sessions) != 2 {
		t.Fatalf("append after sealed reopen lost: %+v", st.Sessions)
	}
	if st.Sealed {
		t.Fatal("log with appends past the seal still reads as sealed")
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(built("a"))
	w.Append(Record{Type: TypeTestsAdded, Key: "a", Reset: true, Tests: testTests(2, 0)})
	w.Close()

	// Simulate a crash mid-append: half a frame at the tail.
	seg := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn, _ := appendFrame(nil, &Record{Type: TypeTestsAdded, Key: "a", Tests: testTests(4, 7)})
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fullSize := int64(0)
	if fi, err := os.Stat(seg); err == nil {
		fullSize = fi.Size()
	}

	w2, st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("torn tail must not fail the boot: %v", err)
	}
	if st.TornTailBytes != int64(len(torn)-5) {
		t.Fatalf("torn tail bytes: got %d want %d", st.TornTailBytes, len(torn)-5)
	}
	if len(st.Sessions) != 1 || len(st.Sessions[0].Tests) != 2 {
		t.Fatalf("state after torn tail: %+v", st.Sessions)
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != fullSize-int64(len(torn)-5) {
		t.Fatalf("tail not truncated: %v", err)
	}
	// Appending over the repaired tail yields a clean log again.
	w2.Append(Record{Type: TypeTestsAdded, Key: "a", Tests: testTests(1, 9)})
	w2.Close()
	st = readState(t, dir)
	if st.TornTailBytes != 0 || len(st.Sessions[0].Tests) != 3 {
		t.Fatalf("append after repair: %+v", st)
	}
}

func TestCorruptMidLogSkippedWithCounter(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(built("a"))
	w.Append(built("b"))
	w.Append(built("c"))
	w.Close()

	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the second frame and flip a payload byte: record b corrupts,
	// a and c must survive.
	second := frameOffset(t, data, 1)
	data[second+frameHeaderSize+10] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("mid-log corruption must not fail the boot: %v", err)
	}
	w2.Close()
	if st.Skipped == 0 {
		t.Fatalf("corruption not counted: %+v", st)
	}
	keys := map[string]bool{}
	for _, s := range st.Sessions {
		keys[s.Key] = true
	}
	if !keys["a"] || !keys["c"] || keys["b"] {
		t.Fatalf("skip-and-continue fold wrong, got %v want a,c", keys)
	}
}

// frameOffset returns the byte offset of the n-th (0-based) frame.
func frameOffset(t *testing.T, data []byte, n int) int {
	t.Helper()
	off := 0
	for i := 0; i < n; i++ {
		_, end, ok := decodeFrameAt(data, off)
		if !ok {
			t.Fatalf("frame %d not decodable", i)
		}
		off = end
	}
	return off
}

func TestRotationCompactionBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	roster := []Record{built("live"), {Type: TypeTestsAdded, Key: "live", Reset: true, Tests: testTests(1, 0)}}
	rotations := 0
	for i := 0; i < 200; i++ {
		if w.Append(Record{Type: TypeTestsAdded, Key: "live", Tests: testTests(1, i)}) {
			rotations++
			w.Compact(roster)
		}
	}
	w.Close()
	if rotations == 0 {
		t.Fatal("segment never rotated at 256 bytes")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if _, ok := segmentSeq(e.Name()); ok {
			segs++
		}
	}
	if segs > 2 {
		t.Fatalf("compaction left %d segments on disk, want <= 2", segs)
	}
	st := readState(t, dir)
	if len(st.Sessions) != 1 || st.Sessions[0].Key != "live" {
		t.Fatalf("compacted state wrong: %+v", st.Sessions)
	}
	if got := w.SnapshotStats(); got.Compactions != int64(rotations) {
		t.Fatalf("compactions counter: got %d want %d", got.Compactions, rotations)
	}
}

func TestAppendFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Append(built("a"))
	if err := failpoint.Enable("journal/append=error(1)x1", 1); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable()
	w.Append(built("b")) // injected failure: degrade, drop
	w.Append(built("c")) // dropped silently
	if !w.Degraded() {
		t.Fatal("writer not degraded after injected append failure")
	}
	st := w.SnapshotStats()
	if st.Dropped < 2 {
		t.Fatalf("dropped counter: got %d want >= 2", st.Dropped)
	}
	// The log keeps the pre-failure state.
	st2 := readState(t, dir)
	if len(st2.Sessions) != 1 || st2.Sessions[0].Key != "a" {
		t.Fatalf("degraded journal state: %+v", st2.Sessions)
	}
}

func TestFsyncFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := failpoint.Enable("journal/fsync=error(1)x1", 1); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable()
	w.Append(built("a"))
	if !w.Degraded() {
		t.Fatal("writer not degraded after injected fsync failure")
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{"": FsyncInterval, "interval": FsyncInterval,
		"always": FsyncAlways, "ALWAYS": FsyncAlways, "off": FsyncOff, "none": FsyncOff}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus")
	}
}

func TestNilWriterIsSafe(t *testing.T) {
	var w *Writer
	w.Append(built("a"))
	w.Sync()
	w.Compact(nil)
	w.Seal()
	w.Close()
	if w.Degraded() {
		t.Fatal("nil writer degraded")
	}
	if st := w.SnapshotStats(); st.Appends != 0 {
		t.Fatalf("nil writer stats: %+v", st)
	}
}
