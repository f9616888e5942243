package cover

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestPaperExample1 encodes Example 1 of the paper verbatim: candidate
// sets C1={A,B,F,G}, C2={C,D,E,F,G}, C3={B,C,E,H}, k=2; {B,D} must be
// among the solutions, {A,D,H} (size 3) must not (k=2), and every
// solution must be an irredundant cover.
func TestPaperExample1(t *testing.T) {
	const (
		A = iota
		B
		C
		D
		E
		F
		G
		H
	)
	p := NewProblem([][]int{
		{A, B, F, G},
		{C, D, E, F, G},
		{B, C, E, H},
	})
	res, err := Enumerate(p, Options{MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
	found := func(want []int) bool {
		for _, cov := range res.Covers {
			if fmt.Sprint(cov) == fmt.Sprint(want) {
				return true
			}
		}
		return false
	}
	if !found([]int{B, D}) {
		t.Fatalf("{B,D} missing from %v", res.Covers)
	}
	// {A,D,H} is a valid solution for k=3 but must be absent at k=2.
	if found([]int{A, D, H}) {
		t.Fatal("size-3 solution at k=2")
	}
	for _, cov := range res.Covers {
		if !p.Irredundant(cov) || len(cov) > 2 {
			t.Fatalf("bad solution %v", cov)
		}
	}
	// With k=3, {A,D,H} must appear (the paper's second example solution).
	res3, err := Enumerate(p, Options{MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	found3 := false
	for _, cov := range res3.Covers {
		if fmt.Sprint(cov) == fmt.Sprint([]int{A, D, H}) {
			found3 = true
		}
	}
	if !found3 {
		t.Fatalf("{A,D,H} missing at k=3: %v", res3.Covers)
	}
}

func TestCoversAndIrredundant(t *testing.T) {
	p := NewProblem([][]int{{1, 2}, {2, 3}})
	if !p.Covers([]int{2}) || p.Covers([]int{1}) {
		t.Fatal("Covers wrong")
	}
	if !p.Irredundant([]int{2}) {
		t.Fatal("{2} should be irredundant")
	}
	if p.Irredundant([]int{1, 2}) {
		t.Fatal("{1,2} has redundant 1")
	}
	if !p.Irredundant([]int{1, 3}) {
		t.Fatal("{1,3} should be irredundant")
	}
}

func TestUniverseDedupes(t *testing.T) {
	p := NewProblem([][]int{{3, 1, 3}, {1, 2}})
	u := p.Universe()
	if fmt.Sprint(u) != "[1 2 3]" {
		t.Fatalf("universe %v", u)
	}
	if len(p.Sets[0]) != 2 {
		t.Fatalf("in-set duplicate kept: %v", p.Sets[0])
	}
}

func TestEmptySetRejected(t *testing.T) {
	p := NewProblem([][]int{{1}, {}})
	if _, err := Enumerate(p, Options{MaxK: 2}); err == nil {
		t.Fatal("empty set accepted")
	}
	// A set that NewProblem did not normalise is rejected too.
	if _, err := Enumerate(&Problem{Sets: [][]int{{2, 1}}}, Options{MaxK: 2}); err == nil {
		t.Fatal("unsorted set accepted")
	}
}

// TestEnumerateAgreesWithBruteForceProperty: the search and brute force
// list the same irredundant covers on random instances.
func TestEnumerateAgreesWithBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nElems := 3 + rng.Intn(6)
		nSets := 1 + rng.Intn(5)
		sets := make([][]int, nSets)
		for i := range sets {
			size := 1 + rng.Intn(nElems)
			perm := rng.Perm(nElems)[:size]
			sets[i] = perm
		}
		p := NewProblem(sets)
		k := 1 + rng.Intn(3)
		res, err := Enumerate(p, Options{MaxK: k})
		if err != nil {
			t.Fatal(err)
		}
		return res.Complete && sameCoverSets(res.Covers, bruteCovers(p, k))
	}
	cfg := &quick.Config{MaxCount: 120}
	if testing.Short() {
		cfg.MaxCount = 30
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func sameCoverSets(a, b [][]int) bool {
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i, c := range a {
		ka[i] = fmt.Sprint(c)
	}
	for i, c := range b {
		kb[i] = fmt.Sprint(c)
	}
	sort.Strings(ka)
	sort.Strings(kb)
	return fmt.Sprint(ka) == fmt.Sprint(kb)
}

// TestEnumerationExactlyIrredundant: every enumerated cover is
// irredundant and every irredundant cover of size <= k is enumerated
// (cross-checked against brute force).
func TestEnumerationExactlyIrredundant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nElems := 3 + rng.Intn(4) // <= 6 elements: brute force is cheap
		nSets := 1 + rng.Intn(4)
		sets := make([][]int, nSets)
		for i := range sets {
			size := 1 + rng.Intn(nElems)
			sets[i] = rng.Perm(nElems)[:size]
		}
		p := NewProblem(sets)
		k := 1 + rng.Intn(nElems)
		res, err := Enumerate(p, Options{MaxK: k})
		if err != nil {
			t.Fatal(err)
		}
		return sameCoverSets(res.Covers, bruteCovers(p, k))
	}
	cfg := &quick.Config{MaxCount: 100}
	if testing.Short() {
		cfg.MaxCount = 25
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMaxSolutionsCap(t *testing.T) {
	// Universe of 6 free elements, one set of all: 6 singleton covers.
	p := NewProblem([][]int{{0, 1, 2, 3, 4, 5}})
	res, err := Enumerate(p, Options{MaxK: 1, MaxSolutions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Covers) != 3 || res.Complete {
		t.Fatalf("cap broken: %d covers, complete=%v", len(res.Covers), res.Complete)
	}
}

func TestBadK(t *testing.T) {
	p := NewProblem([][]int{{1}})
	if _, err := Enumerate(p, Options{MaxK: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestClassesGrouping: elements hitting exactly the same sets share a
// class; classes are ordered by their smallest member and members ascend.
func TestClassesGrouping(t *testing.T) {
	for _, tc := range []struct {
		sets          [][]int
		members, hits string
	}{
		{[][]int{{0, 1, 2, 3, 4, 5}}, "[[0 1 2 3 4 5]]", "[[0]]"},
		{[][]int{{1, 2}, {2, 3}}, "[[1] [2] [3]]", "[[0] [0 1] [1]]"},
		{[][]int{{7, 3, 9}, {9, 1}, {3, 7}}, "[[1] [3 7] [9]]", "[[1] [0 2] [0 1]]"},
		{[][]int{{1, 2, 5}, {3, 4, 5}}, "[[1 2] [3 4] [5]]", "[[0] [1] [0 1]]"},
		{[][]int{{8, 6, 4}, {2, 4, 6, 8}, {2}}, "[[2] [4 6 8]]", "[[1 2] [0 1]]"},
	} {
		members, hits := NewProblem(tc.sets).classes()
		if got := fmt.Sprint(members); got != tc.members {
			t.Errorf("%v: members %s, want %s", tc.sets, got, tc.members)
		}
		if got := fmt.Sprint(hits); got != tc.hits {
			t.Errorf("%v: hits %s, want %s", tc.sets, got, tc.hits)
		}
	}
}

// TestQuotientExpansionOrder: a class cover expands into the product of
// its classes' members, classes by smallest member and the last class
// varying fastest, so the enumeration order is fixed.
func TestQuotientExpansionOrder(t *testing.T) {
	p := NewProblem([][]int{{1, 2, 5}, {3, 4, 5}})
	res, err := Enumerate(p, Options{MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(res.Covers), "[[5] [1 3] [1 4] [2 3] [2 4]]"; got != want || !res.Complete {
		t.Fatalf("covers %s (complete=%v), want %s", got, res.Complete, want)
	}
}

// duplicateHeavy builds a random instance over a few distinct columns:
// 2-5 classes of 2-6 interchangeable elements each (the first one at
// times a singleton), with element IDs shuffled so that classes
// interleave.
func duplicateHeavy(rng *rand.Rand) *Problem {
	nSets := 1 + rng.Intn(5)
	sets := make([][]int, nSets)
	ids := rng.Perm(100) // room for 5 classes of 6, spread out
	next := 0
	for c := range 2 + rng.Intn(4) {
		var col []int // the sets this class's members hit
		for si := range nSets {
			if rng.Intn(2) == 0 {
				col = append(col, si)
			}
		}
		n := 2 + rng.Intn(5)
		if c == 0 && rng.Intn(3) == 0 {
			n = 1
		}
		for range n {
			for _, si := range col {
				sets[si] = append(sets[si], ids[next])
			}
			next++
		}
	}
	for si := range sets {
		if len(sets[si]) == 0 { // keep the instance solvable
			sets[si] = append(sets[si], ids[rng.Intn(next)])
		}
	}
	return NewProblem(sets)
}

// bruteCovers lists every irredundant cover of size <= k by trying every
// subset of the universe of that size.
func bruteCovers(p *Problem, k int) [][]int {
	u := p.Universe()
	var out [][]int
	var sel []int
	var rec func(from int)
	rec = func(from int) {
		if len(sel) > 0 && p.Irredundant(sel) {
			out = append(out, append([]int(nil), sel...))
		}
		if len(sel) == k {
			return
		}
		for i := from; i < len(u); i++ {
			sel = append(sel, u[i])
			rec(i + 1)
			sel = sel[:len(sel)-1]
		}
	}
	rec(0)
	return out
}

// TestQuotientAgreesWithBruteForceProperty: on instances full of
// interchangeable elements, the search over classes and brute force over
// elements list the same covers.
func TestQuotientAgreesWithBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := duplicateHeavy(rng)
		k := 1 + rng.Intn(3)
		res, err := Enumerate(p, Options{MaxK: k})
		if err != nil {
			t.Fatal(err)
		}
		brute := bruteCovers(p, k)
		if !res.Complete || !sameCoverSets(res.Covers, brute) {
			t.Logf("sets %v k=%d: %v (complete=%v) brute %v", p.Sets, k, res.Covers, res.Complete, brute)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150}
	if testing.Short() {
		cfg.MaxCount = 30
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCappedPrefixProperty: a capped enumeration returns exactly the cap
// of distinct irredundant covers, every cover smaller than the largest
// size it returns, and reports itself incomplete — also when the cap
// equals the number of covers. Two capped calls return the same list.
func TestCappedPrefixProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := duplicateHeavy(rng)
		k := 1 + rng.Intn(3)
		all := bruteCovers(p, k)
		if len(all) == 0 {
			return true
		}
		for _, limit := range []int{1 + rng.Intn(len(all)), len(all)} {
			res, err := Enumerate(p, Options{MaxK: k, MaxSolutions: limit})
			if err != nil {
				t.Fatal(err)
			}
			again, err := Enumerate(p, Options{MaxK: k, MaxSolutions: limit})
			if err != nil {
				t.Fatal(err)
			}
			if msg := checkPrefix(p, k, res, all); msg != "" || res.Complete || len(res.Covers) != limit {
				t.Logf("sets %v k=%d cap %d: %d covers, complete=%v %s", p.Sets, k, limit, len(res.Covers), res.Complete, msg)
				return false
			}
			if fmt.Sprint(again.Covers) != fmt.Sprint(res.Covers) {
				t.Logf("sets %v k=%d cap %d: %v then %v", p.Sets, k, limit, res.Covers, again.Covers)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150}
	if testing.Short() {
		cfg.MaxCount = 30
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// checkPrefix returns what is wrong with a partial answer res, or "":
// each cover listed once, irredundant and of size <= k, the sizes never
// decreasing, and every cover of all smaller than the largest size
// present.
func checkPrefix(p *Problem, k int, res *Result, all [][]int) string {
	seen := map[string]bool{}
	largest := 0
	for _, cov := range res.Covers {
		if seen[fmt.Sprint(cov)] {
			return fmt.Sprintf("duplicate cover %v", cov)
		}
		seen[fmt.Sprint(cov)] = true
		if !p.Irredundant(cov) || len(cov) > k || len(cov) < largest {
			return fmt.Sprintf("bad cover %v after size %d", cov, largest)
		}
		largest = len(cov)
	}
	for _, cov := range all {
		if len(cov) < largest && !seen[fmt.Sprint(cov)] {
			return fmt.Sprintf("cover %v smaller than %d missing", cov, largest)
		}
	}
	return ""
}

// TestNoCoverTwiceProperty: excluding earlier siblings makes every cover
// reachable on one path only, so no cover is emitted twice, on plain and
// on duplicate-heavy instances alike.
func TestNoCoverTwiceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := duplicateHeavy(rng)
		if rng.Intn(2) == 0 {
			n := 4 + rng.Intn(8)
			sets := make([][]int, 1+rng.Intn(6))
			for i := range sets {
				sets[i] = rng.Perm(n)[:1+rng.Intn(n)]
			}
			p = NewProblem(sets)
		}
		k := 1 + rng.Intn(4)
		res, err := Enumerate(p, Options{MaxK: k})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, cov := range res.Covers {
			if seen[fmt.Sprint(cov)] {
				t.Logf("sets %v k=%d: %v twice", p.Sets, k, cov)
				return false
			}
			seen[fmt.Sprint(cov)] = true
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if testing.Short() {
		cfg.MaxCount = 40
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// expiring is a context whose Err turns to context.Canceled on its
// n-th call, so a test can cancel at a fixed point of the search.
type expiring struct {
	context.Context
	n int
}

func (c *expiring) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestCancellation: a context cancelled before the call or during it
// yields an incomplete answer that is still a sound size prefix.
func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := make([][]int, 12)
	for i := range sets {
		sets[i] = rng.Perm(24)[:6]
	}
	p := NewProblem(sets)
	const k = 5
	full, err := Enumerate(p, Options{MaxK: k})
	if err != nil {
		t.Fatal(err)
	}
	all := bruteCovers(p, k)
	if !full.Complete || full.Nodes < 4*256 || !sameCoverSets(full.Covers, all) {
		t.Fatalf("uncancelled run: %d nodes, complete=%v, %d covers of %d", full.Nodes, full.Complete, len(full.Covers), len(all))
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"before", cancelled},
		{"during", &expiring{Context: context.Background(), n: 3}},
	} {
		res, err := Enumerate(p, Options{MaxK: k, Ctx: tc.ctx})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d of %d covers, %d of %d nodes", tc.name, len(res.Covers), len(full.Covers), res.Nodes, full.Nodes)
		if res.Complete || res.Nodes >= full.Nodes {
			t.Fatalf("%s: complete=%v after %d nodes", tc.name, res.Complete, res.Nodes)
		}
		if msg := checkPrefix(p, k, res, all); msg != "" {
			t.Fatalf("%s: %s", tc.name, msg)
		}
	}
}

// TestImplicitMatchesBruteForceProperty checks the implicit hitting set
// master against a synthetic oracle over a hidden family H: a candidate
// is valid iff it hits every set of H, and a refuted one reveals one
// set of H that it misses, picked at random. EnumerateImplicit must
// return exactly the minimal hitting sets of H of size <= k, propose
// candidates by non-decreasing size and none twice, and keep its pass
// invariant: when the first candidate of size s is proposed, every
// minimal hitting set of size < s of the sets revealed so far is
// confirmed. A capped run returns a size prefix of the answers.
func TestImplicitMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := duplicateHeavy(rng)
		if rng.Intn(2) == 0 {
			n := 4 + rng.Intn(8)
			sets := make([][]int, 1+rng.Intn(6))
			for i := range sets {
				sets[i] = rng.Perm(n)[:1+rng.Intn(n)]
			}
			h = NewProblem(sets)
		}
		k := 1 + rng.Intn(3)
		all := bruteCovers(h, k)
		var revealed [][]int
		var confirmed, proposed map[string]bool
		size, fail := 0, ""
		reset := func() {
			revealed, size = nil, 0
			confirmed, proposed = map[string]bool{}, map[string]bool{}
		}
		reset()
		check := func(d []int) ([]int, bool, bool) {
			switch key := fmt.Sprint(d); {
			case len(d) < size:
				fail = fmt.Sprintf("%v proposed after size %d", d, size)
			case proposed[key]:
				fail = fmt.Sprintf("%v proposed twice", d)
			default:
				proposed[key] = true
			}
			if len(d) > size {
				size = len(d)
				for _, mhs := range bruteCovers(NewProblem(revealed), size-1) {
					if !confirmed[fmt.Sprint(mhs)] {
						fail = fmt.Sprintf("pass %d starts with %v unconfirmed (revealed %v)", size, mhs, revealed)
					}
				}
			}
			var missed [][]int
			for _, set := range h.Sets {
				if !NewProblem([][]int{set}).Covers(d) {
					missed = append(missed, set)
				}
			}
			if len(missed) == 0 {
				confirmed[fmt.Sprint(d)] = true
				return nil, true, true
			}
			set := missed[rng.Intn(len(missed))]
			revealed = append(revealed, set)
			return set, false, true
		}
		res, err := EnumerateImplicit(Options{MaxK: k}, check)
		if err != nil {
			t.Fatal(err)
		}
		if fail == "" && (!res.Complete || !sameCoverSets(res.Covers, all)) {
			fail = fmt.Sprintf("%v (complete=%v), brute %v", res.Covers, res.Complete, all)
		}
		if fail == "" && len(all) > 0 {
			limit := 1 + rng.Intn(len(all))
			reset()
			capped, err := EnumerateImplicit(Options{MaxK: k, MaxSolutions: limit}, check)
			if err != nil {
				t.Fatal(err)
			}
			if msg := checkPrefix(h, k, capped, all); msg != "" || capped.Complete || len(capped.Covers) != limit {
				fail = fmt.Sprintf("cap %d: %v (complete=%v) %s", limit, capped.Covers, capped.Complete, msg)
			}
		}
		if fail != "" {
			t.Logf("H %v k=%d: %s", h.Sets, k, fail)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if testing.Short() {
		cfg.MaxCount = 40
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestImplicitEdgeCases: the empty family's only minimal hitting set is
// ∅; an empty revealed set means no hitting set exists; a check that
// stops and a cancelled context both end the run incomplete.
func TestImplicitEdgeCases(t *testing.T) {
	valid := func([]int) ([]int, bool, bool) { return nil, true, true }
	res, err := EnumerateImplicit(Options{MaxK: 2}, valid)
	if err != nil || !res.Complete || len(res.Covers) != 1 || len(res.Covers[0]) != 0 {
		t.Fatalf("empty family: %v complete=%v err=%v, want [[]]", res.Covers, res.Complete, err)
	}
	unhittable := func([]int) ([]int, bool, bool) { return []int{}, false, true }
	if res, err = EnumerateImplicit(Options{MaxK: 2}, unhittable); err != nil || !res.Complete || len(res.Covers) != 0 {
		t.Fatalf("empty set: %v complete=%v err=%v, want none", res.Covers, res.Complete, err)
	}
	stop := func([]int) ([]int, bool, bool) { return nil, false, false }
	if res, err = EnumerateImplicit(Options{MaxK: 2}, stop); err != nil || res.Complete {
		t.Fatalf("stopped check: complete=%v err=%v", res.Complete, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err = EnumerateImplicit(Options{MaxK: 2, Ctx: ctx}, valid); err != nil || res.Complete || len(res.Covers) != 0 {
		t.Fatalf("cancelled: %v complete=%v err=%v", res.Covers, res.Complete, err)
	}
	if _, err = EnumerateImplicit(Options{}, valid); err == nil {
		t.Fatal("MaxK 0 accepted")
	}
}
