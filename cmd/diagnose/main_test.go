package main

import (
	"testing"
	"time"
)

// TestRunSmoke drives the full CLI body on an embedded benchmark for
// every engine × shard combination the flags expose. Building this test
// binary is the build check; running run() is the CLI smoke.
func TestRunSmoke(t *testing.T) {
	cases := []struct {
		name   string
		method string
		engine string
		shards int
		traced bool
	}{
		{"bsat-mono", "bsat", "mono", 1, false},
		{"bsat-mono-sharded", "bsat", "mono", 2, false},
		{"bsat-cegar", "bsat", "cegar", 1, false},
		{"bsat-cegar-sharded", "bsat", "cegar", 2, false},
		{"hybrid", "hybrid", "mono", 1, false},
		{"all-engines", "all", "mono", 2, false},
		{"bsat-traced", "bsat", "mono", 2, true},
		{"cegar-traced", "bsat", "cegar", 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run("s298x", "", "", 1, 1, "kind", 4, 0,
				tc.method, tc.engine, tc.shards, 200, time.Minute, false, tc.traced)
			if err != nil {
				t.Fatalf("run(%s/%s/shards=%d): %v", tc.method, tc.engine, tc.shards, err)
			}
		})
	}
}

// TestRunRejectsBadFlags: engine validation happens inside run.
func TestRunRejectsBadFlags(t *testing.T) {
	if err := run("s298x", "", "", 1, 1, "kind", 4, 0, "bsat", "warp", 1, 10, time.Minute, false, false); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if err := run("", "", "", 1, 1, "kind", 4, 0, "bsat", "mono", 1, 10, time.Minute, false, false); err == nil {
		t.Fatal("missing circuit accepted")
	}
}
