package journal

import "sort"

// SessionState is the folded warm state of one live session: everything
// a restarted server needs to rebuild it and serve byte-identical
// answers — the circuit, the ladder width, and the live test-set in
// activation order.
type SessionState struct {
	Key         string
	Fingerprint string
	Bench       string
	MaxK        int

	// Tests is the live test-set (the current activation base the
	// incremental endpoint edits), K the last run's ladder bound.
	Tests []TestRec
	K     int

	// LastSeq is the global sequence number of the last record that
	// touched this session — the recency key replay uses to rebuild
	// most-recently-used sessions first.
	LastSeq int
}

// Records renders the session as the records whose fold reproduces it
// (the inverse of folder.apply): its session-built record, then one
// tests-added reset carrying the live test-set and K. The writer's
// per-run appends and compaction snapshots are both built here.
func (s SessionState) Records() []Record {
	return []Record{
		{
			Type:        TypeSessionBuilt,
			Key:         s.Key,
			Fingerprint: s.Fingerprint,
			Bench:       s.Bench,
			MaxK:        s.MaxK,
		},
		{Type: TypeTestsAdded, Key: s.Key, Reset: true, Tests: s.Tests, K: s.K},
	}
}

// State is the outcome of reading a journal directory: the live
// session roster plus the health of the log itself.
type State struct {
	// Sessions is the live roster, most recently touched first.
	Sessions []SessionState

	Segments      int   // segment files read
	Records       int   // intact records folded
	Skipped       int   // corrupt records/stretches skipped (boot continues)
	TornTailBytes int64 // trailing bytes truncated from the last segment
	Sealed        bool  // the log ended in a clean-shutdown seal
}

// folder accumulates records into per-session state. All index and
// bounds handling is defensive: a corrupt-but-CRC-valid record must
// never panic the boot path.
type folder struct {
	sessions map[string]*SessionState
	seq      int
}

func newFolder() *folder {
	return &folder{sessions: make(map[string]*SessionState)}
}

func (f *folder) apply(rec Record) {
	f.seq++
	switch rec.Type {
	case TypeSessionBuilt:
		if rec.Key == "" {
			return
		}
		// A rebuild (wider ladder) journals as a fresh build: the test
		// copies of the old session are gone, the next tests-added reset
		// restores the live set.
		f.sessions[rec.Key] = &SessionState{
			Key:         rec.Key,
			Fingerprint: rec.Fingerprint,
			Bench:       rec.Bench,
			MaxK:        rec.MaxK,
			LastSeq:     f.seq,
		}
	case TypeTestsAdded:
		s := f.sessions[rec.Key]
		if s == nil {
			return // delta for a session we never saw built: skip
		}
		if rec.Reset {
			s.Tests = append(s.Tests[:0], rec.Tests...)
		} else {
			s.Tests = append(s.Tests, rec.Tests...)
		}
		if rec.K > 0 {
			s.K = rec.K
		}
		s.LastSeq = f.seq
	case TypeTestsRetracted:
		s := f.sessions[rec.Key]
		if s == nil {
			return
		}
		drop := make(map[int]bool, len(rec.Removed))
		for _, i := range rec.Removed {
			if i >= 0 && i < len(s.Tests) {
				drop[i] = true
			}
		}
		if len(drop) > 0 {
			kept := s.Tests[:0]
			for i, t := range s.Tests {
				if !drop[i] {
					kept = append(kept, t)
				}
			}
			s.Tests = kept
		}
		s.LastSeq = f.seq
	case TypeSessionEvicted:
		delete(f.sessions, rec.Key)
	case TypeSeal:
		// Position marker only; fold state is unaffected.
	}
}

// state finalizes the fold into the roster, most recently used first.
func (f *folder) state() []SessionState {
	out := make([]SessionState, 0, len(f.sessions))
	for _, s := range f.sessions {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LastSeq > out[j].LastSeq })
	return out
}
