package service_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/circuit"
	"repro/internal/journal"
	"repro/internal/service"
)

// modelSession is the reference model of one circuit's warm session.
type modelSession struct {
	key   string
	bench string
	pool  circuit.TestSet // the circuit's failing tests requests draw from

	id    string          // live session id ("" when not pooled)
	stale string          // id of this server's evicted session ("" if none)
	tests circuit.TestSet // live test-set
	k     int             // the last run's K
	maxK  int             // the ladder's bound: the largest K since build or replay
}

// TestJournalReplayModel runs a seeded random sequence of stateful
// operations against a journaled server — warm diagnoses of random test
// subsets, ladder growth, retract+add edits and crashes followed by a
// replay — and checks every step against a reference model of the pool
// (LRU roster of two sessions) and of each session's live set. Every
// served answer must equal a fresh core.Diagnose on the model's live
// set; re-sending the live set at a larger K must grow the ladder
// without encoding a copy. After every crash the folded journal must
// equal the model (roster recency, tests and K), replay must build each
// session at its journaled K (the /sessions maxK), and a no-op edit on
// each replayed session must reproduce the model's answer without
// encoding a copy; later grow steps then grow the replayed ladders. A small
// segment size makes rotations and compactions happen mid-sequence.
func TestJournalReplayModel(t *testing.T) {
	const (
		maxSessions = 2
		ops         = 80
	)
	dir := t.TempDir()
	jopts := journal.Options{Dir: dir, SegmentBytes: 4 << 10}
	poolOpts := service.PoolOptions{MaxSessions: maxSessions}
	rng := rand.New(rand.NewSource(15))

	models := make([]*modelSession, 3)
	for i := range models {
		c, tests := scenario(t, 900+40*int64(i), 6)
		models[i] = &modelSession{
			key:   service.Fingerprint(c),
			bench: benchText(t, c),
			pool:  tests,
		}
	}
	var mru []*modelSession // pooled sessions, most recently used first
	touch := func(m *modelSession) {
		for i, o := range mru {
			if o == m {
				mru = append(mru[:i], mru[i+1:]...)
				break
			}
		}
		mru = append([]*modelSession{m}, mru...)
		if len(mru) > maxSessions {
			victim := mru[len(mru)-1]
			victim.stale, victim.id = victim.id, ""
			mru = mru[:maxSessions]
		}
	}
	subset := func(m *modelSession, n int) circuit.TestSet {
		var out circuit.TestSet
		for _, i := range rng.Perm(len(m.pool))[:n] {
			out = append(out, m.pool[i])
		}
		return out
	}
	checkAnswer := func(step string, m *modelSession, resp service.DiagnoseResponse) {
		t.Helper()
		if resp.Tests != len(m.tests) {
			t.Fatalf("%s: served %d tests, model has %d", step, resp.Tests, len(m.tests))
		}
		if got, want := mustJSON(t, resp.Solutions), mustJSON(t, truth(t, m.bench, m.tests, m.k, 1)); got != want {
			t.Fatalf("%s: solutions differ from core.Diagnose on the model's live set:\n got %s\nwant %s", step, got, want)
		}
	}

	jw, _ := openJournal(t, dir)
	_, ts := newJournaledServer(t, jw, false, poolOpts)
	var compactions, replays, grows int64
	crash := func(step string) {
		t.Helper()
		ts.Close()
		compactions += jw.SnapshotStats().Compactions
		jw.Close()

		var st *journal.State
		var err error
		jw, st, err = journal.Open(jopts)
		if err != nil {
			t.Fatalf("%s: reopen: %v", step, err)
		}
		if len(st.Sessions) != len(mru) {
			t.Fatalf("%s: journal folds %d sessions, model has %d", step, len(st.Sessions), len(mru))
		}
		for i, m := range mru {
			ss := st.Sessions[i]
			if ss.Key != m.key {
				t.Fatalf("%s: folded roster position %d is %s, model has %s", step, i, ss.Key, m.key)
			}
			folded := make([]service.TestJSON, len(ss.Tests))
			for j, tr := range ss.Tests {
				folded[j] = service.TestJSON{Vector: tr.Vector, Output: tr.Output, Want: tr.Want}
			}
			if got, want := mustJSON(t, folded), mustJSON(t, testJSON(m.tests)); got != want {
				t.Fatalf("%s: folded tests of %s\n got %s\nwant %s", step, m.key, got, want)
			}
			if ss.K != m.k {
				t.Fatalf("%s: folded %s K=%d, model K=%d", step, m.key, ss.K, m.k)
			}
		}
		var srv *service.Server
		srv, ts = newJournaledServer(t, jw, true, poolOpts)
		if rep := srv.Replay(st, 2); rep.Sessions != len(mru) || rep.Skipped != 0 {
			t.Fatalf("%s: replay %+v, want %d sessions", step, rep, len(mru))
		}
		replays++
		infos := map[string]service.EntryInfo{}
		for _, info := range srv.Pool().Snapshot() {
			infos[info.Key] = info
		}
		for _, m := range models {
			info, ok := infos[m.key]
			m.id, m.stale = info.ID, ""
			if !ok {
				continue
			}
			// The journal carries no ladder width: replay builds at
			// the journaled K and the ladder grows again on demand.
			if info.MaxK != m.k {
				t.Fatalf("%s: replayed %s has maxK %d, want its journaled K=%d", step, m.key, info.MaxK, m.k)
			}
			m.maxK = m.k
		}
		// Touch least recently used first, so the edits keep the order.
		for i := len(mru) - 1; i >= 0; i-- {
			m := mru[i]
			if m.id == "" {
				t.Fatalf("%s: %s not replayed", step, m.key)
			}
			code, resp := post[service.DiagnoseResponse](t, ts.URL+"/sessions/"+m.id+"/tests", service.SessionTestsRequest{})
			if code != http.StatusOK {
				t.Fatalf("%s: no-op edit on replayed %s -> %d", step, m.key, code)
			}
			if resp.NewCopies != 0 {
				t.Fatalf("%s: replayed %s re-encoded %d copies", step, m.key, resp.NewCopies)
			}
			checkAnswer(step+" (replayed)", m, resp)
		}
	}

	for op := 0; op < ops; op++ {
		m := models[rng.Intn(len(models))]
		r := rng.Intn(100)
		switch {
		case r >= 85:
			crash(fmt.Sprintf("op %d crash", op))
			continue
		case r >= 60 && (m.id != "" || m.stale != ""):
			step := fmt.Sprintf("op %d edit", op)
			if m.id == "" {
				code, _ := post[service.DiagnoseResponse](t, ts.URL+"/sessions/"+m.stale+"/tests", service.SessionTestsRequest{})
				if code != http.StatusNotFound {
					t.Fatalf("%s: edit of evicted session -> %d, want 404", step, code)
				}
				continue
			}
			var req service.SessionTestsRequest
			var kept circuit.TestSet
			for i, tc := range m.tests {
				if rng.Intn(3) == 0 {
					req.Remove = append(req.Remove, i)
				} else {
					kept = append(kept, tc)
				}
			}
			add := subset(m, rng.Intn(3))
			if len(kept)+len(add) == 0 {
				add = subset(m, 1)
			}
			req.Add = testJSON(add)
			req.K = rng.Intn(3) // 0 inherits the previous run's K
			code, resp := post[service.DiagnoseResponse](t, ts.URL+"/sessions/"+m.id+"/tests", req)
			if code != http.StatusOK {
				t.Fatalf("%s -> %d", step, code)
			}
			m.tests = append(kept, add...)
			if req.K > 0 {
				m.k = req.K
				m.maxK = max(m.maxK, req.K)
			}
			touch(m)
			checkAnswer(step, m, resp)
		default:
			step := fmt.Sprintf("op %d diagnose", op)
			pooled := m.id != ""
			k := 1 + rng.Intn(2)
			tests := subset(m, 1+rng.Intn(len(m.pool)))
			grow := r >= 50 && pooled && m.maxK < 5
			if grow {
				// One past the ladder the session has, on the live set:
				// the ladder grows and every copy stays encoded.
				k, tests = m.maxK+1, m.tests
				step += " (grow)"
				grows++
			}
			resp := diagnose(t, ts.URL, service.DiagnoseRequest{Bench: m.bench, Tests: testJSON(tests), K: k})
			if resp.PoolHit != pooled {
				t.Fatalf("%s: pool hit %v, model says pooled=%v", step, resp.PoolHit, pooled)
			}
			if grow && resp.NewCopies != 0 {
				t.Fatalf("%s: growing the ladder encoded %d copies", step, resp.NewCopies)
			}
			if !pooled {
				m.maxK = k // a cold build starts at the request's K
			}
			m.maxK = max(m.maxK, k)
			m.id, m.stale, m.tests, m.k = resp.Session, "", tests, k
			touch(m)
			checkAnswer(step, m, resp)
		}
	}
	crash("final crash")
	compactions += jw.SnapshotStats().Compactions
	jw.Close()
	if grows == 0 {
		t.Fatal("no op grew a pooled session's ladder")
	}
	if compactions <= replays {
		t.Fatalf("%d compactions over %d replays: no rotation compacted mid-sequence", compactions, replays)
	}
}
