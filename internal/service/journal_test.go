package service_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/failpoint"
	"repro/internal/journal"
	"repro/internal/service"
)

// openJournal opens (or reopens) a journal directory for a test server.
func openJournal(t *testing.T, dir string) (*journal.Writer, *journal.State) {
	t.Helper()
	jw, st, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("journal open: %v", err)
	}
	return jw, st
}

func newJournaledServer(t *testing.T, jw *journal.Writer, pending bool, pool service.PoolOptions) (*service.Server, *httptest.Server) {
	t.Helper()
	srv := service.NewServer(service.Options{
		Pool:          pool,
		Scheduler:     service.SchedulerOptions{Workers: 4, Queue: 64},
		Journal:       jw,
		ReplayPending: pending,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestJournalCrashReplayServesByteIdentical is the crash-equivalence
// property in-process: build warm state (including an incremental
// edit), crash without sealing, replay from the journal, and require
// the restarted pool to serve byte-identical solutions as warm hits
// with zero re-encoded copies.
func TestJournalCrashReplayServesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	jw, st0 := openJournal(t, dir)
	if len(st0.Sessions) != 0 {
		t.Fatalf("fresh journal not empty: %+v", st0)
	}
	_, tsA := newJournaledServer(t, jw, false, service.PoolOptions{})

	c1, tests1 := scenario(t, 300, 5)
	c2, tests2 := scenario(t, 340, 4)
	b1, b2 := benchText(t, c1), benchText(t, c2)

	r1 := diagnose(t, tsA.URL, service.DiagnoseRequest{Bench: b1, Tests: testJSON(tests1), K: 2})
	diagnose(t, tsA.URL, service.DiagnoseRequest{Bench: b2, Tests: testJSON(tests2), K: 2})
	// Incremental edit on session 1: retract the first test. The journal
	// must carry this edit so the replayed session holds the edited set,
	// not the original.
	code, incBase := post[service.DiagnoseResponse](t, tsA.URL+"/sessions/"+r1.Session+"/tests",
		service.SessionTestsRequest{Remove: []int{0}})
	if code != http.StatusOK {
		t.Fatalf("incremental edit -> %d", code)
	}
	warmBase := diagnose(t, tsA.URL, service.DiagnoseRequest{Bench: b2, Tests: testJSON(tests2), K: 2})
	if !warmBase.PoolHit {
		t.Fatal("second diagnosis of c2 was not warm")
	}

	// Crash: stop serving and drop the writer without a seal record.
	tsA.Close()
	jw.Close()

	jw2, st := openJournal(t, dir)
	defer jw2.Close()
	if st.Sealed {
		t.Fatal("unsealed log read back as sealed")
	}
	if len(st.Sessions) != 2 {
		t.Fatalf("journal roster: got %d sessions, want 2: %+v", len(st.Sessions), st.Sessions)
	}
	srvB, tsB := newJournaledServer(t, jw2, true, service.PoolOptions{})

	// Warming regression: not-ready (503 warming) until replay finishes,
	// while liveness stays 200.
	if code, h := getHealth(t, tsB.URL); code != http.StatusServiceUnavailable || h.Status != "warming" || !h.Live {
		t.Fatalf("healthz during replay: code=%d %+v, want 503 warming live", code, h)
	}
	if resp, err := http.Get(tsB.URL + "/livez"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("livez during replay: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	rep := srvB.Replay(st, 2)
	if rep.Sessions != 2 || rep.Skipped != 0 {
		t.Fatalf("replay: %+v, want 2 sessions 0 skipped", rep)
	}
	if code, h := getHealth(t, tsB.URL); code != http.StatusOK || !h.Ready || h.Warming {
		t.Fatalf("healthz after replay: code=%d %+v, want 200 ready", code, h)
	}

	// Re-sent request on the replayed pool: warm hit, nothing re-encoded,
	// solutions byte-identical to the pre-crash baseline.
	after := diagnose(t, tsB.URL, service.DiagnoseRequest{Bench: b2, Tests: testJSON(tests2), K: 2})
	if !after.PoolHit {
		t.Fatal("replayed session did not serve a warm hit")
	}
	if after.NewCopies != 0 {
		t.Fatalf("replayed session re-encoded %d copies, want 0", after.NewCopies)
	}
	if got, want := mustJSON(t, after.Solutions), mustJSON(t, warmBase.Solutions); got != want {
		t.Fatalf("replayed solutions differ:\n got %s\nwant %s", got, want)
	}

	// The replayed session 1 must carry the post-edit active set and the
	// pre-crash run's K as incremental defaults: a no-op edit re-runs the
	// edited set and must reproduce the incremental baseline bytes.
	parsed1, err := circuit.ParseBench("t", strings.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	key1 := service.Fingerprint(parsed1)
	var id1 string
	for _, info := range srvB.Pool().Snapshot() {
		if info.Key == key1 {
			id1 = info.ID
		}
	}
	if id1 == "" {
		t.Fatalf("session for key %s not replayed", key1)
	}
	code, incAfter := post[service.DiagnoseResponse](t, tsB.URL+"/sessions/"+id1+"/tests",
		service.SessionTestsRequest{})
	if code != http.StatusOK {
		t.Fatalf("incremental on replayed session -> %d", code)
	}
	if incAfter.NewCopies != 0 {
		t.Fatalf("replayed incremental re-encoded %d copies, want 0", incAfter.NewCopies)
	}
	if got, want := mustJSON(t, incAfter.Solutions), mustJSON(t, incBase.Solutions); got != want {
		t.Fatalf("replayed incremental solutions differ:\n got %s\nwant %s", got, want)
	}
}

// legacyFrame frames a raw record payload the way the journal does
// ("JWAL" | length | CRC-32C | payload), so a test can write records in a
// format the current Record type no longer produces.
func legacyFrame(payload []byte) []byte {
	hdr := make([]byte, 12, 12+len(payload))
	copy(hdr, "JWAL")
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(hdr, payload...)
}

// TestReplayLegacyConeKeys: journals written while the encoding had
// fault-model knobs carry a "/enc=…,fz=…[,cone=…]" session-key suffix
// and encoding/forceZero/coneOnly fields on session-built records. Such
// a log replays to identical answers under the fingerprint key. Legacy
// sessions that differed only in the knobs now share that key and
// replay as one: the most recently used one, with its live test-set.
func TestReplayLegacyConeKeys(t *testing.T) {
	dir := t.TempDir()
	jw, _ := openJournal(t, dir)
	_, tsA := newJournaledServer(t, jw, false, service.PoolOptions{})
	c, tests := scenario(t, 300, 5)
	b := benchText(t, c)
	full := diagnose(t, tsA.URL, service.DiagnoseRequest{Bench: b, Tests: testJSON(tests), K: 2})
	code, incBase := post[service.DiagnoseResponse](t, tsA.URL+"/sessions/"+full.Session+"/tests",
		service.SessionTestsRequest{Remove: []int{0}})
	if code != http.StatusOK {
		t.Fatalf("incremental edit -> %d", code)
	}
	tsA.Close()
	jw.Close()

	// Rewrite the log in the legacy formats: two stale sessions holding
	// the history before the edit's record, then the live session
	// holding all of it.
	segs, err := filepath.Glob(filepath.Join(dir, "diag-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments (%v)", err)
	}
	var recs []journal.Record
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		journal.DecodeAll(data, func(rec journal.Record) {
			if rec.Type != journal.TypeSeal {
				recs = append(recs, rec)
			}
		})
		os.Remove(seg)
	}
	// The edit is the last request, so its record is the log's last.
	edit := len(recs) - 1
	if edit < 0 || recs[edit].Type != journal.TypeTestsAdded || len(recs[edit].Tests) != len(tests)-1 {
		t.Fatalf("log does not end in the edit's record: %+v", recs)
	}
	legacyKnobs := []struct {
		suffix string
		fields map[string]any
	}{
		{"/enc=seqcounter,fz=false,cone=false", map[string]any{"encoding": "seqcounter", "coneOnly": false}},
		{"/enc=pairwise,fz=true", map[string]any{"encoding": "pairwise", "forceZero": true}},
		{"/enc=totalizer,fz=true,cone=true", map[string]any{"encoding": "totalizer", "forceZero": true, "coneOnly": true}},
	}
	var legacy []byte
	for s, knobs := range legacyKnobs {
		live := s == len(legacyKnobs)-1
		for i, rec := range recs {
			if !live && i == edit {
				break
			}
			var m map[string]any
			raw, _ := json.Marshal(rec)
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			m["key"] = rec.Key + knobs.suffix
			if rec.Type == journal.TypeSessionBuilt {
				for k, v := range knobs.fields {
					m[k] = v
				}
			}
			payload, _ := json.Marshal(m)
			legacy = append(legacy, legacyFrame(payload)...)
		}
	}
	if err := os.WriteFile(segs[0], legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	jw2, st := openJournal(t, dir)
	defer jw2.Close()
	if len(st.Sessions) != len(legacyKnobs) {
		t.Fatalf("legacy roster: %d sessions, want %d", len(st.Sessions), len(legacyKnobs))
	}
	// The stale sessions must still hold the pre-edit set, or replaying
	// the live one would pass regardless of which session won.
	for i, ss := range st.Sessions {
		want := len(tests)
		if i == 0 {
			want--
		}
		if len(ss.Tests) != want {
			t.Fatalf("legacy session %d (MRU first) %s: %d tests, want %d", i, ss.Key, len(ss.Tests), want)
		}
	}
	srvB, tsB := newJournaledServer(t, jw2, true, service.PoolOptions{})
	if rep := srvB.Replay(st, 2); rep.Sessions != 1 || rep.Skipped != len(legacyKnobs)-1 {
		t.Fatalf("replay: %+v, want 1 session and %d superseded", rep, len(legacyKnobs)-1)
	}
	snap := srvB.Pool().Snapshot()
	key := service.Fingerprint(c)
	if len(snap) != 1 || snap[0].Key != key {
		t.Fatalf("replayed pool %+v, want one session under %s", snap, key)
	}
	code, incAfter := post[service.DiagnoseResponse](t, tsB.URL+"/sessions/"+snap[0].ID+"/tests",
		service.SessionTestsRequest{})
	if code != http.StatusOK {
		t.Fatalf("incremental on replayed session -> %d", code)
	}
	if incAfter.Tests != len(tests)-1 || incAfter.NewCopies != 0 {
		t.Fatalf("replayed live set: %d tests, %d new copies; want the edited %d, 0", incAfter.Tests, incAfter.NewCopies, len(tests)-1)
	}
	if got, want := mustJSON(t, incAfter.Solutions), mustJSON(t, incBase.Solutions); got != want {
		t.Fatalf("replayed incremental solutions differ:\n got %s\nwant %s", got, want)
	}
	after := diagnose(t, tsB.URL, service.DiagnoseRequest{Bench: b, Tests: testJSON(tests), K: 2})
	if !after.PoolHit {
		t.Fatal("replayed legacy session did not serve a warm hit")
	}
	if got, want := mustJSON(t, after.Solutions), mustJSON(t, full.Solutions); got != want {
		t.Fatalf("replayed solutions differ:\n got %s\nwant %s", got, want)
	}
}

// TestReplayBoundedByLiveRoster: evictions write SessionEvicted, so the
// folded roster — and therefore replay cost — is bounded by the live
// pool, not by journal length.
func TestReplayBoundedByLiveRoster(t *testing.T) {
	dir := t.TempDir()
	jw, _ := openJournal(t, dir)
	small := service.PoolOptions{MaxSessions: 2}
	_, tsA := newJournaledServer(t, jw, false, small)

	for i := int64(0); i < 4; i++ {
		c, tests := scenario(t, 400+40*i, 3)
		diagnose(t, tsA.URL, service.DiagnoseRequest{Bench: benchText(t, c), Tests: testJSON(tests), K: 2})
	}
	tsA.Close()
	jw.Close()

	jw2, st := openJournal(t, dir)
	defer jw2.Close()
	if len(st.Sessions) != 2 {
		t.Fatalf("folded roster has %d sessions, want 2 (evicted sessions must not replay): %+v",
			len(st.Sessions), st.Sessions)
	}
	srvB, _ := newJournaledServer(t, jw2, true, small)
	rep := srvB.Replay(st, 2)
	if rep.Sessions != 2 {
		t.Fatalf("replay rebuilt %d sessions, want 2: %+v", rep.Sessions, rep)
	}
	if got := srvB.Pool().Len(); got != 2 {
		t.Fatalf("pool after replay: %d sessions, want 2", got)
	}
}

// TestDrainSealsJournal: graceful shutdown writes the clean-shutdown
// seal, and a sealed log replays without tail repair.
func TestDrainSealsJournal(t *testing.T) {
	dir := t.TempDir()
	jw, _ := openJournal(t, dir)
	srvA, tsA := newJournaledServer(t, jw, false, service.PoolOptions{})
	c, tests := scenario(t, 500, 4)
	diagnose(t, tsA.URL, service.DiagnoseRequest{Bench: benchText(t, c), Tests: testJSON(tests), K: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	tsA.Close()

	jw2, st := openJournal(t, dir)
	defer jw2.Close()
	if !st.Sealed {
		t.Fatal("drained journal not sealed")
	}
	if st.TornTailBytes != 0 || st.Skipped != 0 {
		t.Fatalf("sealed log reported damage: %+v", st)
	}
	if len(st.Sessions) != 1 {
		t.Fatalf("sealed roster: %+v", st.Sessions)
	}
}

// TestReplayCorruptedJournalBootsWithSkips: a flipped byte mid-log and
// trailing garbage must not stop the boot — the corrupt record is
// skipped with the counter > 0, the torn tail truncated, and the
// surviving sessions replay and serve warm.
func TestReplayCorruptedJournalBootsWithSkips(t *testing.T) {
	dir := t.TempDir()
	jw, _ := openJournal(t, dir)
	_, tsA := newJournaledServer(t, jw, false, service.PoolOptions{})
	c1, tests1 := scenario(t, 600, 4)
	c2, tests2 := scenario(t, 640, 4)
	b2 := benchText(t, c2)
	diagnose(t, tsA.URL, service.DiagnoseRequest{Bench: benchText(t, c1), Tests: testJSON(tests1), K: 2})
	diagnose(t, tsA.URL, service.DiagnoseRequest{Bench: b2, Tests: testJSON(tests2), K: 2})
	tsA.Close()
	jw.Close()

	seg := filepath.Join(dir, "diag-00000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first record (c1's session-built) and
	// append garbage that never resolves into a frame (a torn tail).
	data[14] ^= 0xFF
	data = append(data, []byte("crash left this half-written tail")...)
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	jw2, st := openJournal(t, dir)
	defer jw2.Close()
	if st.Skipped == 0 {
		t.Fatalf("corrupt record not counted: %+v", st)
	}
	if st.TornTailBytes == 0 {
		t.Fatalf("torn tail not detected: %+v", st)
	}
	if len(st.Sessions) != 1 {
		t.Fatalf("surviving roster: got %d sessions, want 1 (c2): %+v", len(st.Sessions), st.Sessions)
	}
	srvB, tsB := newJournaledServer(t, jw2, true, service.PoolOptions{})
	rep := srvB.Replay(st, 2)
	if rep.Sessions != 1 {
		t.Fatalf("replay after corruption: %+v", rep)
	}
	after := diagnose(t, tsB.URL, service.DiagnoseRequest{Bench: b2, Tests: testJSON(tests2), K: 2})
	if !after.PoolHit || after.NewCopies != 0 {
		t.Fatalf("surviving session not warm after corrupted-boot replay: %+v", after)
	}
}

// TestReplayFailpointSkipsSessionNotBoot: an injected journal/replay
// failure skips the session (counted) instead of aborting the boot, and
// the server still serves that circuit via a cold rebuild.
func TestReplayFailpointSkipsSessionNotBoot(t *testing.T) {
	dir := t.TempDir()
	jw, _ := openJournal(t, dir)
	_, tsA := newJournaledServer(t, jw, false, service.PoolOptions{})
	c, tests := scenario(t, 700, 4)
	b := benchText(t, c)
	diagnose(t, tsA.URL, service.DiagnoseRequest{Bench: b, Tests: testJSON(tests), K: 2})
	tsA.Close()
	jw.Close()

	jw2, st := openJournal(t, dir)
	defer jw2.Close()
	if len(st.Sessions) != 1 {
		t.Fatalf("roster: %+v", st.Sessions)
	}
	if err := failpoint.Enable("journal/replay=error(1)x4", 1); err != nil {
		t.Fatal(err)
	}
	srvB, tsB := newJournaledServer(t, jw2, true, service.PoolOptions{})
	rep := srvB.Replay(st, 1)
	failpoint.Disable()
	if rep.Sessions != 0 || rep.Skipped != 1 {
		t.Fatalf("failpoint replay: %+v, want 0 sessions 1 skipped", rep)
	}
	if code, h := getHealth(t, tsB.URL); code != http.StatusOK || !h.Ready {
		t.Fatalf("server not ready after skipped replay: %d %+v", code, h)
	}
	resp := diagnose(t, tsB.URL, service.DiagnoseRequest{Bench: b, Tests: testJSON(tests), K: 2})
	if resp.PoolHit || !resp.Complete {
		t.Fatalf("cold rebuild after skipped replay: %+v", resp)
	}
}

// TestJournalDegradedModeKeepsServing: an injected append failure flips
// the journal into disabled-degraded mode; requests keep succeeding and
// /healthz reports degraded while staying ready.
func TestJournalDegradedModeKeepsServing(t *testing.T) {
	dir := t.TempDir()
	jw, _ := openJournal(t, dir)
	_, tsA := newJournaledServer(t, jw, false, service.PoolOptions{})
	defer jw.Close()

	if err := failpoint.Enable("journal/append=error(1)x1", 1); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable()
	c, tests := scenario(t, 800, 4)
	resp := diagnose(t, tsA.URL, service.DiagnoseRequest{Bench: benchText(t, c), Tests: testJSON(tests), K: 2})
	if !resp.Complete {
		t.Fatalf("request failed under journal degradation: %+v", resp)
	}
	if !jw.Degraded() {
		t.Fatal("journal not degraded after injected append failure")
	}
	code, h := getHealth(t, tsA.URL)
	if code != http.StatusOK || !h.Ready {
		t.Fatalf("degraded journal must not flip readiness: %d %+v", code, h)
	}
	if h.Status != "degraded" || !h.JournalDegraded {
		t.Fatalf("healthz must surface journal degradation: %+v", h)
	}
	// Serving continues past the first failure.
	resp2 := diagnose(t, tsA.URL, service.DiagnoseRequest{Bench: benchText(t, c), Tests: testJSON(tests), K: 2})
	if !resp2.PoolHit {
		t.Fatalf("warm serving stopped after journal degradation: %+v", resp2)
	}
}
