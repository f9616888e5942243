package service

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// PoolOptions configures a SessionPool.
type PoolOptions struct {
	// MaxBytes bounds the pool's estimated resident size; the least
	// recently used idle sessions are evicted past it. 0 means the
	// default of 512 MiB. The bound is soft: sessions serving in-flight
	// requests are never evicted, so a fully busy pool can exceed it
	// until requests drain.
	MaxBytes int64
	// MaxSessions bounds the number of warm sessions (0 = 64).
	MaxSessions int
	// Journal, when non-nil, receives the pool's session lifecycle
	// records (build, live test-set after every run, eviction) so a
	// restarted server can replay its warm state. nil disables
	// persistence.
	Journal *journal.Writer
}

// DefaultMaxBytes is the default pool size budget.
const DefaultMaxBytes = 512 << 20

// DefaultMaxSessions is the default warm-session count bound.
const DefaultMaxSessions = 64

// SessionPool keeps diagnosis sessions warm per circuit fingerprint.
// It provides:
//
//   - single-flight construction: concurrent requests for the same cold
//     key build the session exactly once, the rest wait for it;
//   - per-session serialization: PoolEntry.Run queues concurrent
//     requests against one session (a DiagSession is not safe for
//     concurrent use) instead of letting them race;
//   - LRU eviction with byte-size accounting: the estimated resident
//     size of every session is tracked, and idle least-recently-used
//     sessions are dropped when the budget is exceeded.
type SessionPool struct {
	mu         sync.Mutex
	opts       PoolOptions
	jw         *journal.Writer // nil when persistence is disabled
	byKey      map[string]*PoolEntry
	byID       map[string]*PoolEntry
	lru        *list.List // front = most recently used
	totalBytes int64
	nextID     int64

	// Serving counters, exposed on /metrics.
	Hits      metrics.Counter
	Misses    metrics.Counter
	Evictions metrics.Counter
	Bytes     metrics.Gauge
	Sessions  metrics.Gauge
}

// NewSessionPool creates an empty pool.
func NewSessionPool(opts PoolOptions) *SessionPool {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	return &SessionPool{
		opts:  opts,
		jw:    opts.Journal,
		byKey: make(map[string]*PoolEntry),
		byID:  make(map[string]*PoolEntry),
		lru:   list.New(),
	}
}

// PoolEntry is one warm session with its construction state and
// bookkeeping. All session access goes through Run (per-session
// serialization); pool bookkeeping fields are guarded by the pool
// mutex.
type PoolEntry struct {
	pool *SessionPool
	id   string
	key  string

	ready chan struct{} // closed when construction settled
	err   error         // construction error (set before ready closes)

	// runMu serializes all use of the session; it is distinct from the
	// pool mutex so a long diagnosis never blocks pool bookkeeping.
	runMu sync.Mutex
	sess  *cnf.DiagSession
	circ  *circuit.Circuit

	// testIndex maps canonical test keys to encoded copy indices, so a
	// re-sent test reuses its copy instead of re-encoding.
	testIndex map[string]int
	// current is the active test list (copy indices, in request order)
	// of the most recent diagnosis — the base the incremental endpoint
	// edits.
	current []int
	// lastSpec remembers the most recent run's knobs as incremental
	// defaults.
	lastSpec RunSpec
	// activated is set by activate and cleared by Run, which then
	// journals the session's new recipe.
	activated bool

	// The session's durable identity, set once at build publish: the
	// circuit as self-contained .bench text and its fingerprint. An
	// empty bench means the session is not journalable (e.g. its
	// circuit cannot be rendered as .bench text).
	bench string
	fp    string
	// journaled is the recipe last appended to the journal — what a
	// compaction snapshot emits for this session. Guarded by pool.mu;
	// the zero value means nothing is on the log yet.
	journaled journal.SessionState

	// Guarded by pool.mu.
	bytes    int64
	elem     *list.Element
	refs     int
	evicted  bool
	uses     int64
	created  time.Time
	lastUsed time.Time
	// statsSnap caches the session's cost snapshot after each run so
	// /metrics never has to queue behind an in-flight diagnosis.
	statsSnap cnf.SessionStats
}

// ID returns the entry's stable session identifier (the /sessions/{id}
// path segment).
func (e *PoolEntry) ID() string { return e.id }

// Key returns the pool key the entry is stored under.
func (e *PoolEntry) Key() string { return e.key }

// Circuit returns the parsed circuit behind the session.
func (e *PoolEntry) Circuit() *circuit.Circuit { return e.circ }

// Built is what a pool builder returns: the warm session and its
// identity. Source and Fingerprint feed the journal: Source is the
// circuit as self-contained .bench text (empty = don't journal this
// session), Fingerprint its structural hash for replay verification.
type Built struct {
	Session     *cnf.DiagSession
	Circuit     *circuit.Circuit
	Source      string
	Fingerprint string
}

// Acquire outcomes reported by AcquireDetail, in the vocabulary the
// request spans use for the pool-lookup phase detail.
const (
	// OutcomeColdBuild: no warm session existed; this request built it.
	OutcomeColdBuild = "cold-build"
	// OutcomeWarmHit: a warm session was ready immediately.
	OutcomeWarmHit = "warm-hit"
	// OutcomeSingleFlight: another request was already building the
	// session; this one waited for that build instead of duplicating it.
	OutcomeSingleFlight = "singleflight-wait"
)

// Acquire returns the entry for key, building it with build exactly
// once per cold key regardless of how many requests race (single
// flight). hit reports whether a warm session was reused. The caller
// must Release the entry when done with it; until then the entry is
// pinned against eviction.
func (p *SessionPool) Acquire(key string, build func() (Built, error)) (e *PoolEntry, hit bool, err error) {
	e, outcome, err := p.AcquireDetail(key, build)
	return e, outcome != OutcomeColdBuild && err == nil, err
}

// AcquireDetail is Acquire with the lookup outcome spelled out:
// OutcomeColdBuild, OutcomeWarmHit or OutcomeSingleFlight. The
// distinction matters for tracing — a "slow pool phase" means
// construction cost on a cold build but lock/queue convoying on a
// single-flight wait, and the two are fixed differently.
func (p *SessionPool) AcquireDetail(key string, build func() (Built, error)) (e *PoolEntry, outcome string, err error) {
	for {
		p.mu.Lock()
		e = p.byKey[key]
		if e == nil {
			p.nextID++
			e = &PoolEntry{
				pool:      p,
				id:        fmt.Sprintf("s%d", p.nextID),
				key:       key,
				ready:     make(chan struct{}),
				testIndex: make(map[string]int),
				refs:      1,
				created:   time.Now(),
				lastUsed:  time.Now(),
			}
			e.elem = p.lru.PushFront(e)
			p.byKey[key] = e
			p.byID[e.id] = e
			p.Misses.Inc()
			p.mu.Unlock()

			built, berr := build()
			if berr != nil {
				e.err = berr
				close(e.ready)
				p.mu.Lock()
				p.dropLocked(e)
				e.refs--
				p.mu.Unlock()
				return nil, OutcomeColdBuild, berr
			}
			// The entry is already listed in the maps, so Snapshot (and
			// /metrics) can observe it mid-build: publish the built
			// fields under the pool lock before waking the waiters.
			snap := built.Session.Stats()
			p.mu.Lock()
			e.sess = built.Session
			e.circ = built.Circuit
			e.statsSnap = snap
			e.bytes = sessionBytes(snap, built.Session.Circuit)
			p.totalBytes += e.bytes
			e.bench = built.Source
			e.fp = built.Fingerprint
			p.evictLocked(e)
			p.updateGaugesLocked()
			p.mu.Unlock()
			close(e.ready)
			return e, OutcomeColdBuild, nil
		}
		// Existing entry (possibly still building): pin it, then wait
		// for construction to settle outside the pool lock. Whether the
		// entry was already ready is the warm-hit vs single-flight-wait
		// distinction the trace reports.
		e.refs++
		p.lru.MoveToFront(e.elem)
		p.mu.Unlock()
		outcome := OutcomeWarmHit
		select {
		case <-e.ready:
		default:
			outcome = OutcomeSingleFlight
		}
		<-e.ready
		if e.err != nil {
			p.Release(e)
			return nil, outcome, e.err
		}
		p.mu.Lock()
		if e.evicted {
			// Evicted while we waited; unpin and retry with a fresh build.
			p.mu.Unlock()
			p.Release(e)
			continue
		}
		e.lastUsed = time.Now()
		p.mu.Unlock()
		p.Hits.Inc()
		return e, outcome, nil
	}
}

// ByID returns the warm entry with the given session id, pinned against
// eviction (the caller must Release it), or false when unknown.
func (p *SessionPool) ByID(id string) (*PoolEntry, bool) {
	p.mu.Lock()
	e := p.byID[id]
	if e == nil {
		p.mu.Unlock()
		return nil, false
	}
	e.refs++
	p.lru.MoveToFront(e.elem)
	p.mu.Unlock()
	<-e.ready
	if e.err != nil {
		p.Release(e)
		return nil, false
	}
	return e, true
}

// Release unpins an acquired entry.
func (p *SessionPool) Release(e *PoolEntry) {
	p.mu.Lock()
	e.refs--
	if e.refs < 0 {
		panic("service: PoolEntry released more often than acquired")
	}
	// An entry that went stale while pinned is already out of the maps;
	// nothing further to do — the GC reclaims it once the last holder
	// drops it. The entry just released is the most recently used, so it
	// is sheltered from this eviction round (evicting it would defeat
	// the warm cache exactly when it proved useful).
	p.evictLocked(e)
	p.updateGaugesLocked()
	p.mu.Unlock()
}

// Run executes fn with exclusive use of the entry's session (requests
// against one circuit queue here rather than race) and refreshes the
// byte accounting and the cached cost snapshot afterwards. When fn
// activated a test-set, Run journals the session's new recipe.
func (e *PoolEntry) Run(fn func(sess *cnf.DiagSession) error) error {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	err := fn(e.sess)
	snap := e.sess.Stats()
	p := e.pool
	persist := e.activated && p.jw != nil && e.bench != ""
	e.activated = false
	var recipe journal.SessionState
	if persist {
		recipe = e.recipe()
	}
	p.mu.Lock()
	e.statsSnap = snap
	e.uses++
	e.lastUsed = time.Now()
	delta := sessionBytes(snap, e.sess.Circuit) - e.bytes
	e.bytes += delta
	// Publish, then append, both under pool.mu (the journal's
	// serialization point), so a compaction snapshot never sees a
	// half-applied recipe. An entry evicted while pinned is already out
	// of the roster — its session-evicted record is on the log, so a
	// late recipe for it is dropped rather than resurrecting the key.
	if persist && !e.evicted {
		recs := recipe.Records()
		if e.journaled.Key != "" {
			// The session-built record is already on the log: only the
			// first append after a cold build writes it.
			recs = recs[1:]
		}
		e.journaled = recipe
		for _, rec := range recs {
			p.journalLocked(rec)
		}
	}
	if !e.evicted {
		p.totalBytes += delta
		p.evictLocked(e)
	}
	p.updateGaugesLocked()
	p.mu.Unlock()
	return err
}

// activate installs a run's active test list (copy indices) and knobs
// as the session's serving state, the base the incremental endpoint
// edits, and marks it for Run to journal. Caller holds runMu via Run's
// fn.
func (e *PoolEntry) activate(active []int, spec RunSpec) {
	e.current = active
	e.lastSpec = spec
	e.activated = true
}

// recipe derives the session's durable recipe from its serving state:
// circuit, live test-set and the last run's K. The ladder width is not
// part of it: answers and encoded copies do not depend on it, and a
// replayed session grows its ladder on demand. Caller holds runMu.
func (e *PoolEntry) recipe() journal.SessionState {
	live := make(circuit.TestSet, len(e.current))
	for i, ci := range e.current {
		live[i] = e.sess.Tests[ci]
	}
	wire := EncodeTests(live)
	tests := make([]journal.TestRec, len(wire))
	for i, t := range wire {
		tests[i] = journal.TestRec(t)
	}
	return journal.SessionState{
		Key:         e.key,
		Fingerprint: e.fp,
		Bench:       e.bench,
		Tests:       tests,
		K:           e.lastSpec.K,
	}
}

// evictLocked drops idle least-recently-used entries until the pool is
// within its byte and session budgets. keep (the entry just touched) is
// never evicted even when idle, so a session larger than the whole
// budget still serves its own request.
func (p *SessionPool) evictLocked(keep *PoolEntry) {
	for (p.totalBytes > p.opts.MaxBytes || p.lru.Len() > p.opts.MaxSessions) && p.lru.Len() > 0 {
		var victim *PoolEntry
		for el := p.lru.Back(); el != nil; el = el.Prev() {
			cand := el.Value.(*PoolEntry)
			if cand.refs == 0 && cand != keep {
				victim = cand
				break
			}
		}
		if victim == nil {
			return // everything is busy; soft bound
		}
		p.dropLocked(victim)
		p.Evictions.Inc()
	}
}

// dropLocked removes an entry from the maps and accounting. Journaled
// sessions leave a SessionEvicted record so replay never rebuilds dead
// sessions — replay cost stays bounded by the live roster, not journal
// length.
func (p *SessionPool) dropLocked(e *PoolEntry) {
	if e.evicted {
		return
	}
	e.evicted = true
	delete(p.byKey, e.key)
	delete(p.byID, e.id)
	p.lru.Remove(e.elem)
	p.totalBytes -= e.bytes
	if e.journaled.Key != "" {
		p.journalLocked(journal.Record{Type: journal.TypeSessionEvicted, Key: e.key})
	}
}

func (p *SessionPool) updateGaugesLocked() {
	p.Bytes.Set(p.totalBytes)
	p.Sessions.Set(int64(p.lru.Len()))
}

// sessionBytes estimates the resident size of a session from its
// instance dimensions and its circuit. The constants approximate the
// built-in solver's per-variable (watch lists, trail, activity, phase)
// and per-clause (header + literals) footprint, and the session's
// gate-indexed candidate tables, which exist before the first copy; the
// estimate only needs to be proportional for LRU accounting to be
// meaningful.
func sessionBytes(st cnf.SessionStats, c *circuit.Circuit) int64 {
	return int64(st.Vars)*64 + int64(st.Clauses)*48 + int64(len(c.Gates))*16
}

// journalLocked appends one record to the pool's journal (no-op when
// persistence is disabled). Caller holds pool.mu — that lock is the
// journal's serialization point, so when the append crosses a segment
// boundary the compaction snapshot taken here is atomic with respect to
// every other pool delta.
func (p *SessionPool) journalLocked(rec journal.Record) {
	if p.jw == nil {
		return
	}
	if p.jw.Append(rec) {
		p.jw.Compact(p.rosterLocked())
	}
}

// rosterLocked snapshots the live roster as journal records, least
// recently used first so the fold's recency order matches the pool's
// LRU order. Caller holds pool.mu.
func (p *SessionPool) rosterLocked() []journal.Record {
	var out []journal.Record
	for el := p.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*PoolEntry)
		if !e.evicted && e.journaled.Key != "" {
			out = append(out, e.journaled.Records()...)
		}
	}
	return out
}

// CompactJournal snapshots the live roster into a fresh journal segment
// and drops older history (no-op without a journal). Called after a
// startup replay so the re-journaled rebuilds don't double the log.
func (p *SessionPool) CompactJournal() {
	if p.jw == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.jw.Compact(p.rosterLocked())
}

// Promote moves a pinned entry to the most-recently-used position —
// replay uses it to restore the journaled recency order after building
// sessions in parallel.
func (p *SessionPool) Promote(e *PoolEntry) {
	p.mu.Lock()
	if !e.evicted {
		p.lru.MoveToFront(e.elem)
	}
	p.mu.Unlock()
}

// Budgets returns the pool's byte and session bounds (replay stops
// rebuilding once the budget is reached).
func (p *SessionPool) Budgets() (maxBytes int64, maxSessions int) {
	return p.opts.MaxBytes, p.opts.MaxSessions
}

// EntryInfo is a point-in-time public view of one pooled session.
type EntryInfo struct {
	ID       string           `json:"id"`
	Key      string           `json:"key"`
	Bytes    int64            `json:"bytes"`
	Uses     int64            `json:"uses"`
	AgeMs    int64            `json:"ageMs"`
	IdleMs   int64            `json:"idleMs"`
	MaxK     int              `json:"maxK"`
	Stats    cnf.SessionStats `json:"stats"`
	InFlight bool             `json:"inFlight"`
}

// Snapshot lists the warm sessions, most recently used first, without
// touching any live session (the cost stats are the cached post-run
// snapshots).
func (p *SessionPool) Snapshot() []EntryInfo {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]EntryInfo, 0, p.lru.Len())
	for el := p.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*PoolEntry)
		out = append(out, EntryInfo{
			ID:       e.id,
			Key:      e.key,
			Bytes:    e.bytes,
			Uses:     e.uses,
			AgeMs:    now.Sub(e.created).Milliseconds(),
			IdleMs:   now.Sub(e.lastUsed).Milliseconds(),
			MaxK:     max(e.statsSnap.LadderWidth-1, 0),
			Stats:    e.statsSnap,
			InFlight: e.refs > 0,
		})
	}
	return out
}

// TotalBytes returns the pool's current estimated resident size.
func (p *SessionPool) TotalBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totalBytes
}

// Len returns the number of warm sessions.
func (p *SessionPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}
