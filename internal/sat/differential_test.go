package sat

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The arena rewrite of the clause store must be behaviourally invisible:
// not just "same verdicts" but the same search — identical decisions,
// conflicts, propagations, models and failed-assumption cores on every
// instance. This file pins that down as a differential test against
// behaviour recorded from the pre-arena pointer-based solver
// (testdata/prearena_golden.json, written before the arena landed and
// never regenerated since). If a storage change alters the search
// trajectory, this test fails before any Table 2 artifact can drift.
//
// The golden file is refreshed only deliberately, via
//
//	go test ./internal/sat -run TestDifferentialGolden -update-golden
//
// which should only ever be done when the search behaviour is *meant*
// to change (a new heuristic), never for storage refactors.

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden recordings from the current solver")

type goldenRecord struct {
	Name         string `json:"name"`
	Status       string `json:"status"`
	Model        string `json:"model,omitempty"`    // 0/1/- per variable after the final solve
	Conflict     []int  `json:"conflict,omitempty"` // ConflictSet literal encodings
	Decisions    int64  `json:"decisions"`
	Conflicts    int64  `json:"conflicts"`
	Propagations int64  `json:"propagations"`
	Learnt       int64  `json:"learnt"`
	LearntLits   int64  `json:"learntLits"`
	Restarts     int64  `json:"restarts"`
	Minimized    int64  `json:"minimized"`
	Simplifies   int64  `json:"simplifies"`
	Reduces      int64  `json:"reduces"`
	Models       int    `json:"models,omitempty"`  // enumeration cases
	SolHash      string `json:"solhash,omitempty"` // hash over the enumerated projections
	NumClauses   int    `json:"numClauses"`
	NumLearnts   int    `json:"numLearnts"`
}

// goldenCase is one deterministic workload: build the instance, drive
// the solver, and summarize everything observable about the run.
type goldenCase struct {
	name string
	run  func() goldenRecord
}

// xorshift is the deterministic generator shared by every corpus case.
type xorshift uint64

func (x *xorshift) next(mod int) int {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return int(uint64(*x) % uint64(mod))
}

func snapshot(name string, s *Solver, st Status) goldenRecord {
	rec := goldenRecord{
		Name:         name,
		Status:       st.String(),
		Decisions:    s.Stats.Decisions,
		Conflicts:    s.Stats.Conflicts,
		Propagations: s.Stats.Propagations,
		Learnt:       s.Stats.Learnt,
		LearntLits:   s.Stats.LearntLits,
		Restarts:     s.Stats.Restarts,
		Minimized:    s.Stats.MinimizedLit,
		Simplifies:   s.Stats.Simplifies,
		Reduces:      s.Stats.Reduces,
		NumClauses:   s.NumClauses(),
		NumLearnts:   s.NumLearnts(),
	}
	if st == StatusSat {
		var sb strings.Builder
		for v := 0; v < s.NumVars(); v++ {
			switch s.Value(Var(v)) {
			case LTrue:
				sb.WriteByte('1')
			case LFalse:
				sb.WriteByte('0')
			default:
				sb.WriteByte('-')
			}
		}
		rec.Model = sb.String()
	}
	if st == StatusUnsat {
		for _, l := range s.ConflictSet() {
			rec.Conflict = append(rec.Conflict, int(l))
		}
	}
	return rec
}

func buildRandom(nVars, nClauses, width int, seed uint64) *Solver {
	s := New()
	s.NewVars(nVars)
	rng := xorshift(seed)
	for i := 0; i < nClauses; i++ {
		lits := make([]Lit, width)
		for j := range lits {
			lits[j] = MkLit(Var(rng.next(nVars)), rng.next(2) == 1)
		}
		if !s.AddClause(lits...) {
			break
		}
	}
	return s
}

func goldenCorpus() []goldenCase {
	var cases []goldenCase

	// Random k-SAT at several densities: bare solves.
	for _, cfg := range []struct {
		nv, width int
		density   float64
		seed      uint64
	}{
		{20, 3, 3.0, 0x9E3779B97F4A7C15},
		{60, 3, 3.6, 0x2545F4914F6CDD1D},
		{120, 3, 3.6, 0xD1B54A32D192ED03},
		{120, 3, 4.6, 0xA24BAED4963EE407}, // above phase transition, likely UNSAT
		{200, 3, 3.6, 0x9E6D62D06F6FE41B},
		{200, 4, 8.0, 0xC2B2AE3D27D4EB4F},
		{350, 3, 3.4, 0x165667B19E3779F9},
	} {
		cfg := cfg
		name := fmt.Sprintf("rand/nv%d/w%d/d%.1f", cfg.nv, cfg.width, cfg.density)
		cases = append(cases, goldenCase{name, func() goldenRecord {
			s := buildRandom(cfg.nv, int(float64(cfg.nv)*cfg.density), cfg.width, cfg.seed)
			return snapshot(name, s, s.Solve())
		}})
	}

	// Random instances solved under assumptions (conflict-set path).
	for _, seed := range []uint64{0x0B4711, 0x1CAFE5, 0x2BEEF9} {
		seed := seed
		name := fmt.Sprintf("assume/%x", seed)
		cases = append(cases, goldenCase{name, func() goldenRecord {
			s := buildRandom(80, 280, 3, seed)
			rng := xorshift(seed ^ 0xFFFF)
			var st Status
			for round := 0; round < 6; round++ {
				assumps := []Lit{
					MkLit(Var(rng.next(80)), rng.next(2) == 1),
					MkLit(Var(rng.next(80)), rng.next(2) == 1),
					MkLit(Var(rng.next(80)), rng.next(2) == 1),
				}
				st = s.Solve(assumps...)
			}
			return snapshot(name, s, st)
		}})
	}

	// Pigeonhole: systematically UNSAT with deep conflict analysis.
	for n := 5; n <= 7; n++ {
		n := n
		name := fmt.Sprintf("php/%d", n)
		cases = append(cases, goldenCase{name, func() goldenRecord {
			s := pigeonhole(n+1, n)
			return snapshot(name, s, s.Solve())
		}})
	}

	// Incremental clause addition between solves (the session usage).
	cases = append(cases, goldenCase{"incremental", func() goldenRecord {
		s := buildRandom(100, 330, 3, 0x5DEECE66D)
		rng := xorshift(0x5DEECE66D ^ 0xABCDEF)
		var st Status
		for round := 0; round < 8; round++ {
			st = s.Solve()
			if st != StatusSat {
				break
			}
			// Block the projection of the first 12 variables.
			var block []Lit
			for v := 0; v < 12; v++ {
				if s.Value(Var(v)) == LTrue {
					block = append(block, NegLit(Var(v)))
				}
			}
			if len(block) == 0 {
				block = append(block, MkLit(Var(rng.next(100)), true))
			}
			if !s.AddClause(block...) {
				break
			}
		}
		return snapshot("incremental", s, st)
	}})

	// Conflict-budgeted solve: must stop at the identical point.
	cases = append(cases, goldenCase{"budget", func() goldenRecord {
		s := pigeonhole(9, 8)
		s.MaxConflicts = 64
		st := s.Solve()
		return snapshot("budget", s, st)
	}})

	// Learnt-database reduction: an artificially low learnt cap forces
	// reduceDB (sort, keep set, watch rebuild) many times mid-search, so
	// the golden run pins the exact reduction behaviour the big Table 2
	// instances rely on.
	cases = append(cases, goldenCase{"reducedb", func() goldenRecord {
		s := buildRandom(150, 540, 3, 0x7F4A7C159E3779B9)
		s.maxLearnts = 25
		return snapshot("reducedb", s, s.Solve())
	}})
	cases = append(cases, goldenCase{"reducedb/unsat", func() goldenRecord {
		s := pigeonhole(8, 7)
		s.maxLearnts = 20
		return snapshot("reducedb/unsat", s, s.Solve())
	}})

	// Binary-heavy instances: random 2-SAT plus mixed widths, driving the
	// binary watch path through propagation, conflicts, learning and
	// level-0 simplification.
	for _, cfg := range []struct {
		nv      int
		density float64
		seed    uint64
	}{
		{80, 1.8, 0x41C64E6D12345}, {140, 2.2, 0x5851F42D4C957}, {200, 1.9, 0x14057B7EF767814F},
	} {
		cfg := cfg
		name := fmt.Sprintf("binary/nv%d/d%.1f", cfg.nv, cfg.density)
		cases = append(cases, goldenCase{name, func() goldenRecord {
			s := buildRandom(cfg.nv, int(float64(cfg.nv)*cfg.density), 2, cfg.seed)
			var st Status
			if s.Okay() {
				st = s.Solve()
			} else {
				st = StatusUnsat
			}
			return snapshot(name, s, st)
		}})
	}
	cases = append(cases, goldenCase{"binary/mixed", func() goldenRecord {
		s := New()
		s.NewVars(120)
		rng := xorshift(0x6C62272E07BB0142)
		ok := true
		for i := 0; i < 420 && ok; i++ {
			w := 2 + rng.next(3) // widths 2..4, binary-rich
			lits := make([]Lit, w)
			for j := range lits {
				lits[j] = MkLit(Var(rng.next(120)), rng.next(2) == 1)
			}
			ok = s.AddClause(lits...)
		}
		var st Status
		if ok {
			st = s.Solve()
			if st == StatusSat {
				// Force level-0 facts and re-solve: simplify must remove the
				// same satisfied clauses and shrink the same long clauses.
				s.AddClause(MkLit(Var(3), s.Value(Var(3)) == LTrue))
				st = s.Solve()
			}
		} else {
			st = StatusUnsat
		}
		return snapshot("binary/mixed", s, st)
	}})

	// Subset-blocking enumeration (the COV/BSAT discipline).
	cases = append(cases, goldenCase{"enumerate/subset", func() goldenRecord {
		s := buildRandom(60, 150, 3, 0x13579BDF2468ACE0)
		proj := make([]Lit, 14)
		for i := range proj {
			proj[i] = PosLit(Var(i))
		}
		h := sha256.New()
		n, complete := s.EnumerateProjected(proj, EnumOptions{MaxSolutions: 200}, func(trueLits []Lit) bool {
			for _, l := range trueLits {
				fmt.Fprintf(h, "%d,", l)
			}
			h.Write([]byte{';'})
			return true
		})
		st := StatusSat
		if complete {
			st = StatusUnsat
		}
		rec := snapshot("enumerate/subset", s, st)
		rec.Model = "" // last model is incidental here; the hash pins all of them
		rec.Models = n
		rec.SolHash = hex.EncodeToString(h.Sum(nil)[:12])
		return rec
	}})

	// Exact-blocking enumeration with guarded blocking literals.
	cases = append(cases, goldenCase{"enumerate/guarded", func() goldenRecord {
		s := buildRandom(40, 100, 3, 0xFEDCBA9876543210)
		guard := PosLit(s.NewVar())
		proj := make([]Lit, 10)
		for i := range proj {
			proj[i] = PosLit(Var(i))
		}
		h := sha256.New()
		n1, _ := s.EnumerateProjected(proj, EnumOptions{
			Assumptions:  []Lit{guard},
			BlockExtra:   []Lit{guard.Neg()},
			MaxSolutions: 50,
		}, func(trueLits []Lit) bool {
			for _, l := range trueLits {
				fmt.Fprintf(h, "%d,", l)
			}
			h.Write([]byte{';'})
			return true
		})
		s.AddClause(guard.Neg()) // retire the round
		n2, complete := s.EnumerateProjected(proj, EnumOptions{MaxSolutions: 50}, func(trueLits []Lit) bool {
			for _, l := range trueLits {
				fmt.Fprintf(h, "%d,", l)
			}
			h.Write([]byte{'|'})
			return true
		})
		st := StatusSat
		if complete {
			st = StatusUnsat
		}
		rec := snapshot("enumerate/guarded", s, st)
		rec.Model = ""
		rec.Models = n1*1000 + n2
		rec.SolHash = hex.EncodeToString(h.Sum(nil)[:12])
		return rec
	}})

	// DIMACS corpus: parse + solve each testdata/dimacs file.
	files, _ := filepath.Glob(filepath.Join("testdata", "dimacs", "*.cnf"))
	for _, f := range files {
		f := f
		name := "dimacs/" + filepath.Base(f)
		cases = append(cases, goldenCase{name, func() goldenRecord {
			data, err := os.ReadFile(f)
			if err != nil {
				panic(err)
			}
			s, err := ParseDIMACS(strings.NewReader(string(data)))
			if err != nil {
				panic(err)
			}
			return snapshot(name, s, s.Solve())
		}})
	}

	return cases
}

const goldenPath = "testdata/prearena_golden.json"

// TestDifferentialGolden replays the corpus and compares every
// observable of every run against the recorded pre-arena behaviour.
func TestDifferentialGolden(t *testing.T) {
	var got []goldenRecord
	for _, c := range goldenCorpus() {
		got = append(got, c.run())
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), goldenPath)
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden once): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("corpus size changed: golden has %d records, run produced %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Name != g.Name {
			t.Fatalf("case %d: name %q vs golden %q", i, g.Name, w.Name)
		}
		if fmt.Sprintf("%+v", w) != fmt.Sprintf("%+v", g) {
			t.Errorf("%s: behaviour diverged from recording %s\n golden: %+v\n    got: %+v", w.Name, goldenPath, w, g)
		}
	}
}
