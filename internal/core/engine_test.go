package core

import (
	"context"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/circuit"
	"repro/internal/trace"
)

// canonicalLess is the canonical solution order: size, then numeric
// lexicographic over the gate IDs.
func canonicalLess(a, b Correction) bool {
	if a.Size() != b.Size() {
		return a.Size() < b.Size()
	}
	for i := range a.Gates {
		if a.Gates[i] != b.Gates[i] {
			return a.Gates[i] < b.Gates[i]
		}
	}
	return false
}

// firstScenario returns the first detectable scenario scanning seeds
// upward from start.
func firstScenario(t *testing.T, start int64, p, m int) *scenario {
	t.Helper()
	for seed := start; seed < start+25; seed++ {
		if sc := makeScenario(t, seed, p, m); sc != nil {
			return sc
		}
	}
	t.Fatalf("no detectable scenario from seed %d", start)
	return nil
}

// sameOrder reports whether two solution lists are identical including
// order — the canonical-ordering contract, stronger than SameSolutions.
func sameOrder(a, b []Correction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

// TestShardCountInvarianceProperty is the acceptance contract of the
// sharded engine layer: on randomized scenarios, every SAT engine must
// produce the identical solution list — canonical order included — for
// Shards = 1 and Shards = N, and the sharded bsat/cegar results must
// equal monolithic BSAT.
func TestShardCountInvarianceProperty(t *testing.T) {
	engines := []string{"bsat", "cegar", "hybrid"}
	shardCounts := []int{1, 2, 3, 5}
	f := func(seed int64) bool {
		sc := makeScenario(t, seed%5000, 1+int(abs64(seed)%2), 5)
		if sc == nil {
			return true
		}
		mono, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		if !mono.Complete {
			return true
		}
		for _, engine := range engines {
			var base []Correction
			for _, n := range shardCounts {
				rep, err := Diagnose(context.Background(), Request{
					Engine: engine, Circuit: sc.faulty, Tests: sc.tests,
					K: sc.k, Shards: n, ShardSample: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Complete {
					t.Logf("seed %d %s shards=%d: incomplete without budgets", seed, engine, n)
					return false
				}
				if !SameSolutions(&mono.SolutionSet, &rep.SolutionSet) {
					t.Logf("seed %d %s shards=%d: %v != mono %v", seed, engine, n, rep.Solutions, mono.Solutions)
					return false
				}
				if base == nil {
					base = rep.Solutions
				} else if !sameOrder(base, rep.Solutions) {
					t.Logf("seed %d %s shards=%d: order %v != shards=1 order %v", seed, engine, n, rep.Solutions, base)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 6
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestShardedBSATDirect exercises the Shards option on the concrete
// entry point (no registry) including per-shard reporting.
func TestShardedBSATDirect(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		sc := makeScenario(t, seed, 2, 5)
		if sc == nil {
			continue
		}
		mono, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		// ShardSample 1 forces the fork path even on small spaces.
		sharded, err := BSAT(sc.faulty, sc.tests, BSATOptions{K: sc.k, Shards: 4, ShardSample: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !mono.Complete || !sharded.Complete {
			continue
		}
		if !sameOrder(mono.Solutions, sharded.Solutions) {
			t.Fatalf("seed %d: sharded %v != mono %v", seed, sharded.Solutions, mono.Solutions)
		}
		if len(sharded.PerShard) == 0 {
			t.Fatalf("seed %d: sharded run missing per-shard stats", seed)
		}
		// A forked run's sample stage holds its first solution.
		if len(sharded.PerShard) > 1 {
			if one := sharded.Timings.One; one <= 0 || one > sharded.PerShard[0].Elapsed {
				t.Fatalf("seed %d: Timings.One %v outside (0, sample stage %v]", seed, one, sharded.PerShard[0].Elapsed)
			}
		}
		total := 0
		for _, st := range sharded.PerShard {
			total += st.Solutions
		}
		if total < len(sharded.Solutions) {
			t.Fatalf("seed %d: shards report %d solutions, merged %d", seed, total, len(sharded.Solutions))
		}

		cegar, err := CEGARDiagnose(sc.faulty, sc.tests, BSATOptions{K: sc.k, Shards: 3, ShardSample: 1})
		if err != nil {
			t.Fatal(err)
		}
		if cegar.Complete && !sameOrder(mono.Solutions, cegar.Solutions) {
			t.Fatalf("seed %d: sharded cegar %v != mono %v", seed, cegar.Solutions, mono.Solutions)
		}
	}
}

// TestTracedShardedDiagnose: a traced sharded bsat run groups its
// stages under the engine span — exactly one "sample" child for the
// live stage and a "cube.w<worker>" child per served cube — and the
// stage counters account for every merged solution. A traced cegar run
// forks nothing, whatever Shards says: its engine span has no children
// and carries the laps and counters of its implicit hitting set loop.
func TestTracedShardedDiagnose(t *testing.T) {
	var sc *scenario
	for seed := int64(1); seed < 40 && sc == nil; seed++ {
		cand := makeScenario(t, seed, 2, 5)
		if cand == nil {
			continue
		}
		// At least two solutions, so a ShardSample 1 run forks.
		if mono, err := BSAT(cand.faulty, cand.tests, BSATOptions{K: cand.k}); err == nil && mono.Complete && len(mono.Solutions) >= 2 {
			sc = cand
		}
	}
	if sc == nil {
		t.Fatal("no scenario with at least two solutions")
	}
	traced := func(engine string) (*Report, *trace.SpanJSON) {
		root := trace.New("request")
		rep, err := Diagnose(trace.NewContext(context.Background(), root), Request{
			Engine: engine, Circuit: sc.faulty, Tests: sc.tests, K: sc.k, Shards: 2, ShardSample: 1,
		})
		root.End()
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		for _, c := range root.Breakdown().Children {
			if c.Name == "engine:"+engine {
				return rep, c
			}
		}
		t.Fatalf("%s: no engine span", engine)
		return nil, nil
	}
	bsat, engineSpan := traced("bsat")
	samples, cubes, cubeSols := 0, 0, 0
	for _, c := range engineSpan.Children {
		switch {
		case c.Name == "sample":
			samples++
		case strings.HasPrefix(c.Name, "cube.w"):
			cubes++
			cubeSols += int(c.Counters["solutions"])
		}
	}
	if samples != 1 || cubes == 0 {
		t.Fatalf("bsat: %d sample and %d cube spans, want 1 and >= 1", samples, cubes)
	}
	if got := cubeSols + bsat.PerShard[0].Solutions; got < len(bsat.Solutions) {
		t.Fatalf("bsat: spans account for %d solutions, merged %d", got, len(bsat.Solutions))
	}
	rep, span := traced("cegar")
	if !sameOrder(bsat.Solutions, rep.Solutions) || len(rep.PerShard) != 0 || len(span.Children) != 0 {
		t.Fatalf("cegar: %v (%d stages, %d child spans), bsat %v", rep.Solutions, len(rep.PerShard), len(span.Children), bsat.Solutions)
	}
	checkCEGARSpan(t, rep, span)
}

// checkCEGARSpan checks a cegar engine span against its report: the
// session, check, core and master laps are present, and the cores,
// checked and nodes counters match the report.
func checkCEGARSpan(t *testing.T, rep *Report, span *trace.SpanJSON) {
	t.Helper()
	phases := map[string]bool{}
	for _, p := range span.Phases {
		phases[p.Name] = true
	}
	for _, want := range []string{"session", "check", "core", "master"} {
		if !phases[want] {
			t.Fatalf("engine:cegar span lacks lap %q: %+v", want, span.Phases)
		}
	}
	if span.Counters["cores"] != int64(rep.Refinements) || span.Counters["checked"] != int64(rep.Checked) || span.Counters["nodes"] <= 0 {
		t.Fatalf("engine:cegar counters %v, report %d cores and %d checked", span.Counters, rep.Refinements, rep.Checked)
	}
}

// TestCEGARTimings: the laps of a traced cegar run tile at least 90% of
// its engine span, and never more than the span plus noise.
func TestCEGARTimings(t *testing.T) {
	c, tests, _ := cegarLargeScenario(t, "s1423x", 2, 8)
	root := trace.New("request")
	rep, err := Diagnose(trace.NewContext(context.Background(), root), Request{Engine: "cegar", Circuit: c, Tests: tests, K: 3})
	root.End()
	if err != nil || !rep.Complete {
		t.Fatalf("complete=%v err=%v", rep != nil && rep.Complete, err)
	}
	var span *trace.SpanJSON
	for _, ch := range root.Breakdown().Children {
		if ch.Name == "engine:cegar" {
			span = ch
		}
	}
	if span == nil {
		t.Fatal("no engine:cegar span")
	}
	checkCEGARSpan(t, rep, span)
	sum := 0.0
	for _, p := range span.Phases {
		sum += p.DurationMS
	}
	if sum < 0.9*span.DurationMS || sum > 1.1*span.DurationMS {
		t.Fatalf("laps sum to %.3fms of %.3fms: %+v", sum, span.DurationMS, span.Phases)
	}
}

// TestDiagnoseCancellation: a cancelled context must surface promptly as
// an incomplete result on every SAT engine, and the sat layer's
// mid-enumeration test covers the in-search path.
func TestDiagnoseCancellation(t *testing.T) {
	sc := firstScenario(t, 17, 2, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, engine := range []string{"bsat", "cegar", "hybrid", "cov", "bsim"} {
		start := time.Now()
		rep, err := Diagnose(ctx, Request{Engine: engine, Circuit: sc.faulty, Tests: sc.tests, K: sc.k, Shards: 2})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if rep.Complete {
			t.Fatalf("%s: cancelled diagnosis reported complete", engine)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("%s: cancellation took %v", engine, elapsed)
		}
	}
}

// TestDiagnoseRegistry: engine resolution, defaults and error paths.
func TestDiagnoseRegistry(t *testing.T) {
	sc := firstScenario(t, 1, 1, 4)
	names := EngineNames()
	want := []string{"bsat", "bsim", "cegar", "cov", "hybrid"}
	for _, w := range want {
		found := false
		for _, n := range names {
			found = found || n == w
		}
		if !found {
			t.Fatalf("engine %q not registered (have %v)", w, names)
		}
	}
	// Default engine is bsat; report echoes the resolved name.
	rep, err := Diagnose(context.Background(), Request{Circuit: sc.faulty, Tests: sc.tests, K: sc.k})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != "bsat" || !rep.Guaranteed {
		t.Fatalf("default engine report: %q guaranteed=%v", rep.Engine, rep.Guaranteed)
	}
	if _, err := Diagnose(context.Background(), Request{Engine: "no-such", Circuit: sc.faulty, Tests: sc.tests}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := Diagnose(context.Background(), Request{Engine: "bsat", Tests: sc.tests}); err == nil {
		t.Fatal("nil circuit accepted")
	}
	if _, err := Diagnose(context.Background(), Request{Engine: "bsat", Circuit: sc.faulty}); err == nil {
		t.Fatal("empty test-set accepted")
	}
	// bsim and cov answer through the same surface, unguaranteed.
	for _, engine := range []string{"bsim", "cov"} {
		rep, err := Diagnose(context.Background(), Request{Engine: engine, Circuit: sc.faulty, Tests: sc.tests, K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Guaranteed {
			t.Fatalf("%s must not claim the Lemma 1/3 guarantee", engine)
		}
	}
}

// TestEmptyCandidateSet: with no candidate gates, a test-set the
// circuit already passes has exactly one correction, the empty one, on
// every SAT engine and shard count.
func TestEmptyCandidateSet(t *testing.T) {
	sc := firstScenario(t, 1, 1, 4)
	passing := append(circuit.TestSet(nil), sc.tests...)
	for i := range passing {
		passing[i].Want = !passing[i].Want // what the faulty circuit computes
	}
	for _, run := range []struct {
		engine string
		shards int
	}{{"bsat", 1}, {"bsat", 2}, {"cegar", 1}} {
		rep, err := Diagnose(context.Background(), Request{
			Engine: run.engine, Circuit: sc.faulty, Tests: passing, K: 1, Shards: run.shards, Candidates: []int{},
		})
		if err != nil {
			t.Fatalf("%s shards=%d: %v", run.engine, run.shards, err)
		}
		if !rep.Complete || len(rep.Solutions) != 1 || rep.Solutions[0].Size() != 0 {
			t.Fatalf("%s shards=%d: solutions %v complete=%v, want the empty correction alone", run.engine, run.shards, rep.Solutions, rep.Complete)
		}
	}
}

// TestCanonicalOrderProperty: every engine emits solutions in canonical
// order (size, then lexicographic).
func TestCanonicalOrderProperty(t *testing.T) {
	sc := firstScenario(t, 23, 2, 6)
	for _, engine := range []string{"bsim", "cov", "bsat", "cegar", "hybrid"} {
		rep, err := Diagnose(context.Background(), Request{Engine: engine, Circuit: sc.faulty, Tests: sc.tests, K: sc.k})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(rep.Solutions); i++ {
			if canonicalLess(rep.Solutions[i], rep.Solutions[i-1]) {
				t.Fatalf("%s: solutions %d/%d out of canonical order: %v then %v",
					engine, i-1, i, rep.Solutions[i-1], rep.Solutions[i])
			}
		}
	}
}
