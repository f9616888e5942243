package service_test

import (
	"context"
	"net/http"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/service"
	"repro/internal/sim"
)

// splitByCone picks a base test-set on one erroneous output and one
// further test whose output cone holds a gate outside the base cone, so
// adding it allocates select lines no earlier copy had.
func splitByCone(t *testing.T, start int64) (*circuit.Circuit, circuit.TestSet, circuit.Test) {
	t.Helper()
	for seed := start; seed < start+40; seed++ {
		c, tests := scenario(t, seed, 8)
		var base circuit.TestSet
		for _, tc := range tests {
			if tc.Output == tests[0].Output {
				base = append(base, tc)
			}
		}
		cone := c.FaninCone(tests[0].Output)
		for _, tc := range tests {
			for g, in := range c.FaninCone(tc.Output) {
				if in && !cone[g] {
					return c, base, tc
				}
			}
		}
	}
	t.Fatalf("no scenario from seed %d has two output cones", start)
	return nil, nil, circuit.Test{}
}

// TestWarmEditReachesNewGates: an edit whose new test's cone reaches
// gates outside every earlier copy, made after a solve and a K growth,
// gives the session new select lines and ladder leaves on a live
// solver. Its answers must be byte-identical to cold BSAT over the
// edited test-set, with 1 and 2 shards, and so must a no-op edit on the
// session replayed from the journal after a crash.
func TestWarmEditReachesNewGates(t *testing.T) {
	for _, shards := range []int{1, 2} {
		c, base, extra := splitByCone(t, int64(700+40*shards))
		bench := benchText(t, c)
		dir := t.TempDir()
		jw, _ := openJournal(t, dir)
		srvA, tsA := newJournaledServer(t, jw, false, service.PoolOptions{})
		lines := func(srv *service.Server, id string) int {
			for _, info := range srv.Pool().Snapshot() {
				if info.ID == id {
					return info.Stats.Candidates
				}
			}
			t.Fatalf("session %s not pooled", id)
			return 0
		}

		built := diagnose(t, tsA.URL, service.DiagnoseRequest{Bench: bench, Tests: testJSON(base), K: 1})
		grown := diagnose(t, tsA.URL, service.DiagnoseRequest{Bench: bench, Tests: testJSON(base), K: 3, Shards: shards, SampleCap: 1})
		if !grown.PoolHit || grown.NewCopies != 0 {
			t.Fatalf("shards %d: K=3 on the K=1 session: hit %v, %d new copies", shards, grown.PoolHit, grown.NewCopies)
		}
		before := lines(srvA, built.Session)
		code, edit := post[service.DiagnoseResponse](t, tsA.URL+"/sessions/"+built.Session+"/tests",
			service.SessionTestsRequest{Add: testJSON(circuit.TestSet{extra}), Shards: shards, SampleCap: 1})
		if code != http.StatusOK || edit.NewCopies != 1 {
			t.Fatalf("shards %d: edit -> %d, %d new copies", shards, code, edit.NewCopies)
		}
		if after := lines(srvA, built.Session); after <= before {
			t.Fatalf("shards %d: the edit left %d select lines (had %d); its cone reaches no new gate", shards, after, before)
		}
		edited := append(slices.Clone(base), extra)
		want := mustJSON(t, truth(t, bench, edited, 3, 1))
		if got := mustJSON(t, edit.Solutions); got != want {
			t.Fatalf("shards %d: edit reaching new gates differs from cold BSAT:\n got %s\nwant %s", shards, got, want)
		}
		tsA.Close()
		jw.Close()

		jw2, st := openJournal(t, dir)
		srvB, tsB := newJournaledServer(t, jw2, true, service.PoolOptions{})
		if rep := srvB.Replay(st, 2); rep.Sessions != 1 || rep.Skipped != 0 {
			t.Fatalf("shards %d: replay %+v, want 1 session", shards, rep)
		}
		snap := srvB.Pool().Snapshot()
		if len(snap) != 1 || snap[0].MaxK != 3 {
			t.Fatalf("shards %d: replayed pool %+v, want one session at K=3", shards, snap)
		}
		code, replayed := post[service.DiagnoseResponse](t, tsB.URL+"/sessions/"+snap[0].ID+"/tests",
			service.SessionTestsRequest{})
		if code != http.StatusOK || replayed.NewCopies != 0 {
			t.Fatalf("shards %d: no-op edit on the replayed session -> %d, %d new copies", shards, code, replayed.NewCopies)
		}
		if got := mustJSON(t, replayed.Solutions); got != want {
			t.Fatalf("shards %d: replayed session differs from cold BSAT:\n got %s\nwant %s", shards, got, want)
		}
		jw2.Close()
	}
}

// TestWarmPassingTestsGiveEmptyCorrection: on a warm session whose
// tests already pass, ∅ is the one minimal correction, so every run
// answers exactly [∅], with the select lines' saved phases steered to
// "selected" (the order that once let a singleton come first) and
// without, on 1 and 2 shards.
func TestWarmPassingTestsGiveEmptyCorrection(t *testing.T) {
	c, tests := scenario(t, 3, 2)
	for i, tc := range tests {
		tests[i].Want = sim.Eval(c, tc.Vector)[slices.Index(c.Outputs, tc.Output)]
	}
	pool := service.NewSessionPool(service.PoolOptions{})
	e, _, err := pool.Acquire(service.Fingerprint(c), warmBuilder(c, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Release(e)
	for _, shards := range []int{1, 2} {
		for _, steer := range []bool{false, true} {
			if steer {
				e.Run(func(sess *cnf.DiagSession) error {
					for _, l := range sess.Sels {
						sess.Solver.BumpActivity(l.Var(), 1)
						sess.Solver.SetPolarity(l.Var(), true)
					}
					return nil
				})
			}
			rep, err := e.Diagnose(context.Background(), tests, service.RunSpec{K: 2, Shards: shards, SampleCap: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Complete || len(rep.Solutions) != 1 || len(rep.Solutions[0]) != 0 {
				t.Fatalf("shards %d steer %v: %v (complete=%v), want exactly [∅]", shards, steer, rep.Solutions, rep.Complete)
			}
		}
	}
}
