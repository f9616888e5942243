package service

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/failpoint"
	"repro/internal/journal"
	"repro/internal/trace"
)

// DefaultReplayWorkers bounds the parallel session rebuilds of a boot
// replay when the caller does not choose.
const DefaultReplayWorkers = 4

// ReplayReport is the outcome of a warm-pool replay.
type ReplayReport struct {
	Sessions int // sessions rebuilt into the pool
	Skipped  int // sessions skipped (failpoint, corrupt record, over budget)
	Tests    int // test copies re-encoded
	Elapsed  time.Duration
}

// Replay rebuilds the warm pool from a journal's folded state: sessions
// are rebuilt bounded-parallel, most recently used first, until the
// pool's LRU byte/session budget is reached; the journaled recency
// order is then restored so the first post-boot eviction drops the
// right session. A session that fails to rebuild — corrupt bench text,
// fingerprint mismatch, injected journal/replay failure — is skipped
// and counted, never fatal. The warming flag clears when replay
// finishes, flipping /healthz from 503 not-ready to serving.
func (s *Server) Replay(st *journal.State, workers int) ReplayReport {
	defer s.warming.Store(false)
	start := time.Now()
	if workers <= 0 {
		workers = DefaultReplayWorkers
	}
	var rep ReplayReport
	if st != nil {
		s.replaySt.Store(st)
	}
	if st == nil || len(st.Sessions) == 0 {
		rep.Elapsed = time.Since(start)
		s.replayMillis.Set(rep.Elapsed.Milliseconds())
		return rep
	}

	span := trace.New("replay")
	span.SetDetail(fmt.Sprintf("%d sessions", len(st.Sessions)))
	maxBytes, maxSessions := s.pool.Budgets()

	// Sessions of a journal written while the encoding had fault-model
	// knobs (ladder, force-zero, cone) may differ only in their legacy
	// key suffix; they now share the fingerprint key, and the most
	// recently used one (the roster is MRU-first) carries the live
	// test-set.
	roster := make([]journal.SessionState, 0, len(st.Sessions))
	seen := make(map[string]bool, len(st.Sessions))
	for _, ss := range st.Sessions {
		journaled := ss.Key
		ss.Key = canonicalKey(ss.Key)
		if seen[ss.Key] {
			rep.Skipped++
			child := span.Child("session")
			child.SetDetail(journaled + ": skipped (superseded)")
			child.End()
			continue
		}
		seen[ss.Key] = true
		roster = append(roster, ss)
	}

	var mu sync.Mutex // guards rep counts and entries
	entries := make([]*PoolEntry, len(roster))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range roster {
		// The roster is MRU-first, so once the pool budget is reached
		// every remaining session is less recently used than everything
		// already rebuilt: stop, don't thrash the LRU.
		if s.pool.Len() >= maxSessions || s.pool.TotalBytes() >= maxBytes {
			mu.Lock()
			rep.Skipped += len(roster) - i
			mu.Unlock()
			for ; i < len(roster); i++ {
				child := span.Child("session")
				child.SetDetail(roster[i].Key + ": skipped (pool budget)")
				child.End()
			}
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			ss := &roster[i]
			child := span.Child("session")
			entry, tests, err := s.replaySession(ss)
			mu.Lock()
			if err != nil {
				rep.Skipped++
				child.SetDetail(ss.Key + ": skipped (" + err.Error() + ")")
			} else {
				entries[i] = entry
				rep.Sessions++
				rep.Tests += tests
				child.SetDetail(ss.Key)
			}
			mu.Unlock()
			child.End()
		}(i)
	}
	wg.Wait()

	// Parallel builds completed in arbitrary order; restore the
	// journaled recency by touching entries least-recent first, then
	// unpin. Release evicts past the budget from the LRU back, which is
	// now the correct end to trim.
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i] != nil {
			s.pool.Promote(entries[i])
		}
	}
	for _, e := range entries {
		if e != nil {
			s.pool.Release(e)
		}
	}
	// The replayed builds re-journaled themselves; compact so the log
	// holds one clean roster snapshot instead of history plus replay.
	s.pool.CompactJournal()

	rep.Elapsed = time.Since(start)
	span.End()
	s.replaySessions.Add(int64(rep.Sessions))
	s.replaySkipped.Add(int64(rep.Skipped))
	s.replayTests.Add(int64(rep.Tests))
	s.replayMillis.Set(rep.Elapsed.Milliseconds())
	s.traces.add(&RequestTrace{
		ID: "replay", Time: time.Now(), Mode: "replay",
		Complete:  true,
		ElapsedMs: float64(rep.Elapsed.Microseconds()) / 1e3,
		Timings:   span.Breakdown(),
	})
	s.log.Info("replay", "sessions", rep.Sessions, "skipped", rep.Skipped,
		"tests", rep.Tests, "records", st.Records, "corrupt", st.Skipped,
		"tornTailBytes", st.TornTailBytes, "sealed", st.Sealed,
		"elapsedMs", rep.Elapsed.Milliseconds())
	return rep
}

// replaySession rebuilds one journaled session: parse the bench text,
// verify the fingerprint, cold-build the warm session through the pool
// at the journaled K (journaling it afresh; a later run at a larger k
// grows the ladder in place), and prime the live test-set so the next
// request — full or incremental — behaves exactly like a warm request
// on the pre-crash session. The returned entry is pinned; the caller
// releases after restoring LRU order.
func (s *Server) replaySession(ss *journal.SessionState) (*PoolEntry, int, error) {
	if err := failpoint.Inject(journal.FailpointReplay); err != nil {
		return nil, 0, fmt.Errorf("failpoint: %w", err)
	}
	c, err := circuit.ParseBench("journal", strings.NewReader(ss.Bench))
	if err != nil {
		return nil, 0, fmt.Errorf("parse bench: %w", err)
	}
	if fp := Fingerprint(c); fp != ss.Fingerprint {
		return nil, 0, fmt.Errorf("fingerprint mismatch: journal %s, parsed %s", ss.Fingerprint, fp)
	}
	if ss.Key != "" && ss.Fingerprint != ss.Key {
		return nil, 0, fmt.Errorf("key mismatch: journal %q, derived %q", ss.Key, ss.Fingerprint)
	}
	var tests circuit.TestSet
	if len(ss.Tests) > 0 {
		tj := make([]TestJSON, len(ss.Tests))
		for i, t := range ss.Tests {
			tj[i] = TestJSON(t)
		}
		if tests, err = DecodeTests(c, tj); err != nil {
			return nil, 0, fmt.Errorf("journaled tests: %w", err)
		}
	}
	entry, outcome, err := s.pool.AcquireDetail(ss.Fingerprint, func() (Built, error) {
		return Built{
			Session:     NewWarmSession(c, ss.K),
			Circuit:     c,
			Source:      ss.Bench,
			Fingerprint: ss.Fingerprint,
		}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	if outcome != OutcomeColdBuild {
		// A request that arrived during warming already rebuilt this key
		// (and owns a fresher active test-set than the journal's): leave
		// it alone.
		return entry, 0, nil
	}
	if err := entry.Prime(tests, ss.K); err != nil {
		s.pool.Release(entry)
		return nil, 0, fmt.Errorf("prime: %w", err)
	}
	return entry, len(tests), nil
}
