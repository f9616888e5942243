package core_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
)

// The diagnosis counter gate: Table 2 enumeration cells, among them the
// reference and CEGAR jobs whose counters the docs quote, are run
// through core.Diagnose and their deterministic work counters
// (solutions, solver decisions/propagations/conflicts, instance size)
// are compared against testdata/diag_counters.json. Any drift fails —
// a change that is meant to move the search regenerates the baseline
// on purpose, in the same change, via
//
//	go test ./internal/core -run TestDiagnosisCounters -update-counters
//
// Wall time is logged, never gated.

var updateCounters = flag.Bool("update-counters", false, "rewrite testdata/diag_counters.json from the current counters")

const countersPath = "testdata/diag_counters.json"

type diagCounters struct {
	Job          string `json:"job"`
	Models       int    `json:"models"`
	Decisions    int64  `json:"decisions,omitempty"`
	Propagations int64  `json:"propagations,omitempty"`
	Conflicts    int64  `json:"conflicts,omitempty"`
	Vars         int    `json:"vars"`
	Clauses      int    `json:"clauses"`
	Copies       int    `json:"copies,omitempty"`
}

// counterJob is one gated diagnosis: a cell (circuit, injected errors,
// scenario seed, test prefix) and the engine run on it.
type counterJob struct {
	circuit string
	p       int
	seed    int64
	m       int
	engine  string
	k       int
	shards  int
}

func (j counterJob) name() string {
	name := fmt.Sprintf("%s-p%d-m%d-k%d-%s", j.circuit, j.p, j.m, j.k, j.engine)
	if j.shards > 1 {
		name += fmt.Sprintf("-shards%d", j.shards)
	}
	return name
}

// counterJobs are table2-enum cells of the benchmark harness: three
// small ones, the reference job and the CEGAR job.
var counterJobs = []counterJob{
	{circuit: "s298x", p: 2, seed: 1, m: 8, engine: "bsat", k: 2},
	{circuit: "s298x", p: 2, seed: 1, m: 8, engine: "bsat", k: 2, shards: 2},
	{circuit: "s400x", p: 2, seed: 3, m: 8, engine: "cegar", k: 2},
	{circuit: "s1423x", p: 4, seed: 1, m: 16, engine: "bsat", k: 3},
	{circuit: "s1423x", p: 2, seed: 5, m: 8, engine: "cegar", k: 3},
}

func runCounterJob(t *testing.T, j counterJob) diagCounters {
	t.Helper()
	sc, err := expt.Prepare(expt.Config{Circuit: j.circuit, P: j.p, Seed: j.seed})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := core.Diagnose(context.Background(), core.Request{
		Engine: j.engine, Circuit: sc.Faulty, Tests: sc.Tests.Prefix(j.m), K: j.k, Shards: j.shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %d models in %v (not gated)", j.name(), len(rep.Solutions), time.Since(start))
	if !rep.Complete {
		t.Fatalf("%s: enumeration incomplete", j.name())
	}
	c := diagCounters{Job: j.name(), Models: len(rep.Solutions), Vars: rep.Vars, Clauses: rep.Clauses}
	if j.shards <= 1 {
		// A sharded run's solver work depends on which worker serves
		// which cube; only its answer and instance size are gated.
		c.Decisions, c.Propagations, c.Conflicts = rep.Stats.Decisions, rep.Stats.Propagations, rep.Stats.Conflicts
		c.Copies = rep.Copies
	}
	return c
}

// TestDiagnosisCounters is the counter gate described above.
func TestDiagnosisCounters(t *testing.T) {
	var got []diagCounters
	for _, j := range counterJobs {
		got = append(got, runCounterJob(t, j))
	}
	if *updateCounters {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countersPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), countersPath)
		return
	}
	buf, err := os.ReadFile(countersPath)
	if err != nil {
		t.Fatalf("missing baseline (run with -update-counters once): %v", err)
	}
	var want []diagCounters
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("job list changed: baseline has %d records, run produced %d", len(want), len(got))
	}
	for i, w := range want {
		if w != got[i] {
			t.Errorf("%s: counters drifted from %s\n baseline: %+v\n      got: %+v", w.Job, countersPath, w, got[i])
		}
	}
}
