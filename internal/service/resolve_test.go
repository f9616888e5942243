package service

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
)

const tinyBench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NAND(a, b)\ny = NOT(n)\n"

// variant returns tinyBench with a distinguishing comment: a distinct
// cache key for the same circuit.
func variant(i int) string { return fmt.Sprintf("%s# variant %d\n", tinyBench, i) }

func mustResolve(t *testing.T, cc *circuitCache, req *DiagnoseRequest) (*resolvedCircuit, bool) {
	t.Helper()
	res, hit, err := cc.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	return res, hit
}

// TestCircuitCacheHitSharesCircuit: the same text twice is one parse,
// and the hit hands out the very same circuit; a suite name is cached
// the same way, under its own key.
func TestCircuitCacheHitSharesCircuit(t *testing.T) {
	cc := newCircuitCache(DefaultMaxSessions, maxBodyBytes)
	first, hit := mustResolve(t, cc, &DiagnoseRequest{Bench: tinyBench})
	if hit {
		t.Fatal("first lookup hit an empty cache")
	}
	again, hit := mustResolve(t, cc, &DiagnoseRequest{Bench: tinyBench})
	if !hit || again != first || again.circ != first.circ {
		t.Fatalf("second lookup: hit=%v, same entry=%v", hit, again == first)
	}
	if first.fp != Fingerprint(first.circ) {
		t.Fatal("cached fingerprint differs from the circuit's")
	}
	suite, hit := mustResolve(t, cc, &DiagnoseRequest{Circuit: "s298x"})
	if hit {
		t.Fatal("suite name hit before it was resolved")
	}
	if again, hit := mustResolve(t, cc, &DiagnoseRequest{Circuit: "s298x"}); !hit || again != suite {
		t.Fatal("suite name not cached")
	}
	if cc.Hits.Value() != 2 || cc.Misses.Value() != 2 || cc.Len() != 2 {
		t.Fatalf("hits=%d misses=%d len=%d", cc.Hits.Value(), cc.Misses.Value(), cc.Len())
	}
}

// TestCircuitCacheEvictsLRU: the 65th distinct text evicts the least
// recently used entry, not the oldest one.
func TestCircuitCacheEvictsLRU(t *testing.T) {
	cc := newCircuitCache(DefaultMaxSessions, maxBodyBytes)
	for i := 0; i < DefaultMaxSessions; i++ {
		mustResolve(t, cc, &DiagnoseRequest{Bench: variant(i)})
	}
	// Touch the oldest entry: variant 1 becomes the least recently used.
	if _, hit := mustResolve(t, cc, &DiagnoseRequest{Bench: variant(0)}); !hit {
		t.Fatal("variant 0 missed before the cache was full")
	}
	mustResolve(t, cc, &DiagnoseRequest{Bench: variant(DefaultMaxSessions)})
	if cc.Len() != DefaultMaxSessions {
		t.Fatalf("len = %d, want %d", cc.Len(), DefaultMaxSessions)
	}
	for _, c := range []struct {
		i   int
		hit bool
	}{{0, true}, {DefaultMaxSessions, true}, {2, true}, {1, false}} {
		if _, hit := mustResolve(t, cc, &DiagnoseRequest{Bench: variant(c.i)}); hit != c.hit {
			t.Fatalf("variant %d: hit=%v, want %v", c.i, hit, c.hit)
		}
	}
}

// TestCircuitCacheByteBound: cached text is bounded in bytes too, and a
// text past the whole bound resolves without being cached.
func TestCircuitCacheByteBound(t *testing.T) {
	size := len(variant(10))
	cc := newCircuitCache(DefaultMaxSessions, 2*size)
	for i := 10; i < 13; i++ {
		mustResolve(t, cc, &DiagnoseRequest{Bench: variant(i)})
	}
	if cc.Len() != 2 || cc.bytes != 2*size {
		t.Fatalf("len=%d bytes=%d, want 2 entries of %d bytes", cc.Len(), cc.bytes, size)
	}
	if _, hit := mustResolve(t, cc, &DiagnoseRequest{Bench: variant(10)}); hit {
		t.Fatal("the least recently used text survived the byte bound")
	}
	big := tinyBench + "#" + strings.Repeat("x", 2*size) + "\n"
	if res, _ := mustResolve(t, cc, &DiagnoseRequest{Bench: big}); res.circ.NumGates() != 4 {
		t.Fatalf("oversized text resolved to %v", res.circ)
	}
	if _, hit := mustResolve(t, cc, &DiagnoseRequest{Bench: big}); hit || cc.Len() != 2 {
		t.Fatalf("oversized text cached: hit=%v len=%d", hit, cc.Len())
	}
}

// TestCircuitCacheNeverCachesErrors: a malformed netlist or unknown
// suite name fails on every lookup and leaves the cache empty.
func TestCircuitCacheNeverCachesErrors(t *testing.T) {
	cc := newCircuitCache(DefaultMaxSessions, maxBodyBytes)
	for _, req := range []DiagnoseRequest{
		{Bench: "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"},
		{Circuit: "no-such-circuit"},
		{},
	} {
		for i := 0; i < 3; i++ {
			if _, _, err := cc.resolve(&req); err == nil {
				t.Fatalf("%+v resolved", req)
			}
		}
	}
	if cc.Len() != 0 || cc.Hits.Value() != 0 {
		t.Fatalf("len=%d hits=%d after failed lookups", cc.Len(), cc.Hits.Value())
	}
}

// TestResolvedSourceRoundTrips: the journal source is rendered once per
// entry and parses back to the same fingerprint.
func TestResolvedSourceRoundTrips(t *testing.T) {
	cc := newCircuitCache(DefaultMaxSessions, maxBodyBytes)
	res, _ := mustResolve(t, cc, &DiagnoseRequest{Bench: variant(3)})
	src := res.source()
	if src == "" || res.source() != src {
		t.Fatalf("source %q not stable", src)
	}
	back, err := circuit.ParseBench("journal", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(back) != res.fp {
		t.Fatal("rendered source changes the fingerprint")
	}
}
