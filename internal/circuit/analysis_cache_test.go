package circuit

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/logic"
)

func TestAnalysisLevelsAndCache(t *testing.T) {
	c := buildDiamond(t)
	an := c.Analysis()
	if an != c.Analysis() {
		t.Fatal("Analysis not cached")
	}
	want := c.Levels()
	maxLevel := 0
	for g, l := range want {
		if an.Levels[g] != l {
			t.Fatalf("gate %d: cached level %d, Levels() %d", g, an.Levels[g], l)
		}
		if l > maxLevel {
			maxLevel = l
		}
	}
	if an.MaxLevel != maxLevel {
		t.Fatalf("MaxLevel = %d, want %d", an.MaxLevel, maxLevel)
	}
}

func TestAnalysisFaninConeBits(t *testing.T) {
	c := buildDiamond(t)
	an := c.Analysis()
	for root := range c.Gates {
		ref := c.FaninCone(root)
		bits := an.FaninConeBits(root)
		for g, in := range ref {
			if bits.Has(g) != in {
				t.Fatalf("root %d gate %d: bitset %v, FaninCone %v", root, g, bits.Has(g), in)
			}
		}
		out := c.FanoutCone(root)
		for g, in := range out {
			if an.Reaches(root, g) != in {
				t.Fatalf("Reaches(%d, %d) = %v, FanoutCone %v", root, g, !in, in)
			}
		}
	}
}

// TestAnalysisConcurrent races the fanin-cone memo behind Reaches (the
// one Validator and the X-list sweeps read): workers released together
// demand the same deep cones in the same order, so builds collide, and
// every caller must end up holding the one bitset the memo kept.
func TestAnalysisConcurrent(t *testing.T) {
	// A ladder: gate i = AND(gate i-1, gate i-2), so cone i spans every
	// gate below it and takes long enough to build for workers to overlap.
	b := NewBuilder("ladder")
	prev2, prev1 := b.Input("a"), b.Input("b")
	for i := 0; i < 300; i++ {
		prev2, prev1 = prev1, b.Gate(logic.And, fmt.Sprintf("g%d", i), prev1, prev2)
	}
	b.Output(prev1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := len(c.Gates)
	const workers = 8
	got := make([][]Bitset, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			an := c.Analysis()
			got[w] = make([]Bitset, n)
			<-start
			for to := n - 1; to >= 0; to-- {
				got[w][to] = an.FaninConeBits(to)
				an.Reaches(to/2, to)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	an := c.Analysis()
	for to := 0; to < n; to++ {
		ref := c.FaninCone(to)
		kept := an.FaninConeBits(to)
		for w := range got {
			if &got[w][to][0] != &kept[0] {
				t.Fatalf("worker %d holds a cone of %d the memo did not keep", w, to)
			}
		}
		for from := 0; from < n; from++ {
			if an.Reaches(from, to) != ref[from] {
				t.Fatalf("concurrent build corrupted cone of %d", to)
			}
		}
	}
}
