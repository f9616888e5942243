package service

import (
	"container/list"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/metrics"
)

// resolvedCircuit is one resolved netlist: the parsed circuit, its
// fingerprint, and the journal source rendered on first demand. It is
// shared by every request that carries the same netlist text.
//
// Sharing is safe because a *circuit.Circuit is immutable once
// ParseBench (or gen's Builder.Build) returns it: the only writes to
// its fields happen inside the circuit package before the constructor
// returns, and the lazily memoized structural Analysis (levels, fanin
// and fanout cones) guards itself with sync.Once and a RWMutex.
// Nothing in the service, cnf or core writes to a circuit it is given.
type resolvedCircuit struct {
	circ *circuit.Circuit
	fp   string

	srcOnce sync.Once
	src     string
}

// source renders the circuit as self-contained .bench text for the
// journal, once per entry. Empty when the circuit contains constructs
// .bench cannot express (that session simply isn't journaled).
func (r *resolvedCircuit) source() string {
	r.srcOnce.Do(func() {
		var sb strings.Builder
		if err := circuit.WriteBench(&sb, r.circ); err == nil {
			r.src = sb.String()
		}
	})
	return r.src
}

// circuitKey names a request's netlist exactly: the .bench text
// itself, or a synthetic-suite name. The flag keeps the two key spaces
// apart, so no netlist text can alias a suite name.
type circuitKey struct {
	suite bool
	text  string
}

// circuitCache resolves each distinct netlist once: it maps the exact
// request text to its resolvedCircuit, least recently used first out.
// It is bounded by entry count and by the bytes of text it keeps alive,
// not by the session pool's size: a pool smaller than the working set
// of netlists still rebuilds evicted sessions from cached circuits.
// A miss parses outside the lock; two racing misses on one text parse
// it twice and keep the first result, which is harmless.
type circuitCache struct {
	maxEntries int
	maxBytes   int

	mu    sync.Mutex
	lru   *list.List // of *cacheItem, most recently used at the front
	byKey map[circuitKey]*list.Element
	bytes int

	Hits   metrics.Counter
	Misses metrics.Counter
}

type cacheItem struct {
	key circuitKey
	res *resolvedCircuit
}

func newCircuitCache(maxEntries, maxBytes int) *circuitCache {
	return &circuitCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		lru:        list.New(),
		byKey:      make(map[circuitKey]*list.Element),
	}
}

// resolve returns the request's circuit (parsing the netlist or
// generating the named suite circuit on a miss) and whether it was
// already cached. Netlists that fail to resolve are never cached.
func (cc *circuitCache) resolve(req *DiagnoseRequest) (*resolvedCircuit, bool, error) {
	var key circuitKey
	switch {
	case req.Bench != "":
		key = circuitKey{text: req.Bench}
	case req.Circuit != "":
		key = circuitKey{suite: true, text: req.Circuit}
	default:
		return nil, false, errors.New("request needs bench (netlist text) or circuit (suite name)")
	}
	if res := cc.lookup(key); res != nil {
		cc.Hits.Inc()
		return res, true, nil
	}
	cc.Misses.Inc()
	c, err := resolveCircuit(key)
	if err != nil {
		return nil, false, err
	}
	return cc.insert(key, &resolvedCircuit{circ: c, fp: Fingerprint(c)}), false, nil
}

// resolveCircuit parses the netlist text (or generates the named suite
// circuit) behind key.
func resolveCircuit(key circuitKey) (*circuit.Circuit, error) {
	if key.suite {
		return gen.ByName(key.text)
	}
	c, err := circuit.ParseBench("request", strings.NewReader(key.text))
	if err != nil {
		return nil, fmt.Errorf("parse bench: %w", err)
	}
	return c, nil
}

func (cc *circuitCache) lookup(key circuitKey) *resolvedCircuit {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	el, ok := cc.byKey[key]
	if !ok {
		return nil
	}
	cc.lru.MoveToFront(el)
	return el.Value.(*cacheItem).res
}

// insert caches res under key unless a racing miss got there first (its
// entry wins), then evicts least recently used entries past the bounds.
// A text larger than the byte bound is returned uncached.
func (cc *circuitCache) insert(key circuitKey, res *resolvedCircuit) *resolvedCircuit {
	if len(key.text) > cc.maxBytes {
		return res
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if el, ok := cc.byKey[key]; ok {
		cc.lru.MoveToFront(el)
		return el.Value.(*cacheItem).res
	}
	cc.byKey[key] = cc.lru.PushFront(&cacheItem{key: key, res: res})
	cc.bytes += len(key.text)
	for cc.lru.Len() > cc.maxEntries || cc.bytes > cc.maxBytes {
		old := cc.lru.Remove(cc.lru.Back()).(*cacheItem)
		delete(cc.byKey, old.key)
		cc.bytes -= len(old.key.text)
	}
	return res
}

// Len reports the number of cached circuits.
func (cc *circuitCache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.lru.Len()
}
