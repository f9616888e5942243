package service_test

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/service"
)

func warmBuilder(c *circuit.Circuit, builds *atomic.Int64) func() (service.Built, error) {
	return func() (service.Built, error) {
		if builds != nil {
			builds.Add(1)
		}
		return service.Built{
			Session: service.NewWarmSession(c, 2),
			Circuit: c,
			MaxK:    2,
		}, nil
	}
}

// TestPoolSingleFlight: concurrent requests for the same cold key must
// build the session exactly once; everyone else waits and hits.
func TestPoolSingleFlight(t *testing.T) {
	c, tests := scenario(t, 1, 4)
	pool := service.NewSessionPool(service.PoolOptions{})
	key := service.Fingerprint(c)

	var builds atomic.Int64
	var hits atomic.Int64
	var wg sync.WaitGroup
	results := make([][][]int, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, hit, err := pool.Acquire(key, warmBuilder(c, &builds))
			if err != nil {
				t.Error(err)
				return
			}
			defer pool.Release(e)
			if hit {
				hits.Add(1)
			}
			rep, err := e.Diagnose(context.Background(), tests, service.RunSpec{K: 2})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = rep.Solutions
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("cold key built %d times, want exactly 1 (single flight)", builds.Load())
	}
	if hits.Load() != 15 {
		t.Fatalf("%d hits for 16 concurrent requests, want 15", hits.Load())
	}
	if pool.Hits.Value() != 15 || pool.Misses.Value() != 1 {
		t.Fatalf("counters: hits=%d misses=%d", pool.Hits.Value(), pool.Misses.Value())
	}
	// Per-session serialization: all concurrent diagnoses of one session
	// must have produced the identical canonical solution list.
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("request %d solutions %v != request 0 %v", i, results[i], results[0])
		}
	}
}

// TestPoolEvictionRebuildsIdentical: an evicted session must rebuild on
// the next request and return the identical canonical solutions.
func TestPoolEvictionRebuildsIdentical(t *testing.T) {
	cA, testsA := scenario(t, 2, 4)
	cB, _ := scenario(t, 40, 4)
	pool := service.NewSessionPool(service.PoolOptions{MaxSessions: 1})
	keyA := service.Fingerprint(cA)
	keyB := service.Fingerprint(cB)
	if keyA == keyB {
		t.Fatal("distinct circuits with equal keys")
	}

	diagnose := func(key string, c *circuit.Circuit, tests circuit.TestSet) ([][]int, bool) {
		e, hit, err := pool.Acquire(key, warmBuilder(c, nil))
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Release(e)
		rep, err := e.Diagnose(context.Background(), tests, service.RunSpec{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete {
			t.Fatal("incomplete without budgets")
		}
		return rep.Solutions, hit
	}

	first, hit := diagnose(keyA, cA, testsA)
	if hit {
		t.Fatal("first request hit a cold pool")
	}
	// B displaces A (MaxSessions 1, A idle).
	diagnose(keyB, cB, circuit.TestSet{testsA[0].Clone()})
	if pool.Evictions.Value() == 0 {
		t.Fatal("no eviction recorded")
	}
	if pool.Len() != 1 {
		t.Fatalf("pool holds %d sessions, want 1", pool.Len())
	}
	// A rebuilds (miss) and must reproduce the identical solutions.
	again, hit := diagnose(keyA, cA, testsA)
	if hit {
		t.Fatal("evicted key reported a pool hit")
	}
	b1, _ := json.Marshal(first)
	b2, _ := json.Marshal(again)
	if string(b1) != string(b2) {
		t.Fatalf("rebuilt session diverged:\n  first %s\n  again %s", b1, b2)
	}
}

// TestPoolBusyEntriesSurviveEviction: a pinned session must not be
// evicted even when the pool is over budget; the bound is soft.
func TestPoolBusyEntriesSurviveEviction(t *testing.T) {
	cA, testsA := scenario(t, 3, 3)
	cB, _ := scenario(t, 60, 3)
	pool := service.NewSessionPool(service.PoolOptions{MaxSessions: 1})
	keyA := service.Fingerprint(cA)
	keyB := service.Fingerprint(cB)

	eA, _, err := pool.Acquire(keyA, warmBuilder(cA, nil))
	if err != nil {
		t.Fatal(err)
	}
	// A stays pinned while B arrives: both live, over budget.
	eB, _, err := pool.Acquire(keyB, warmBuilder(cB, nil))
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(eB)
	if pool.Len() != 2 {
		t.Fatalf("pinned session evicted: pool has %d sessions", pool.Len())
	}
	// The pinned session still works.
	if _, err := eA.Diagnose(context.Background(), testsA, service.RunSpec{K: 2}); err != nil {
		t.Fatal(err)
	}
	// Releasing A lets the budget enforce again on the next operation.
	pool.Release(eA)
	eB2, _, err := pool.Acquire(keyB, warmBuilder(cB, nil))
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(eB2)
	if pool.Len() != 1 {
		t.Fatalf("pool holds %d sessions after release, want 1", pool.Len())
	}
	if pool.TotalBytes() <= 0 {
		t.Fatalf("byte accounting lost: %d", pool.TotalBytes())
	}
}

// TestPoolByID: the id lookup pins the entry; unknown ids miss.
func TestPoolByID(t *testing.T) {
	c, tests := scenario(t, 4, 3)
	pool := service.NewSessionPool(service.PoolOptions{})
	key := service.Fingerprint(c)
	e, _, err := pool.Acquire(key, warmBuilder(c, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Diagnose(context.Background(), tests, service.RunSpec{K: 2}); err != nil {
		t.Fatal(err)
	}
	pool.Release(e)

	got, ok := pool.ByID(e.ID())
	if !ok || got != e {
		t.Fatalf("ByID(%q) = %v, %v", e.ID(), got, ok)
	}
	pool.Release(got)
	if _, ok := pool.ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
	snap := pool.Snapshot()
	if len(snap) != 1 || snap[0].ID != e.ID() || snap[0].Stats.Copies != len(tests) {
		t.Fatalf("snapshot %+v", snap)
	}
}
