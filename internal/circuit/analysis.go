package circuit

import "sync"

// Structural analyses backing the diagnosis algorithms: levels, cones
// and distance-to-gate metrics.

// Analysis caches the structural precomputations shared by the
// event-driven simulation engine and the diagnosis hot loops:
// levelization and lazily materialized fanin-cone bitsets. It is built
// at most once per Circuit (see Circuit.Analysis) and is safe for
// concurrent use.
type Analysis struct {
	// Levels is the longest distance (in gates) from any primary input,
	// per gate; inputs are level 0. Fanins always sit on strictly lower
	// levels than the gate they drive, so evaluating level-by-level in
	// ascending order respects all data dependencies.
	Levels []int
	// MaxLevel is the largest entry of Levels (the circuit depth).
	MaxLevel int

	c  *Circuit
	mu sync.RWMutex
	// inCones memoizes fanin-cone bitsets per root. Cones are demanded
	// only for observed outputs (a small subset of gates), so the map
	// stays far below the dense |gates|^2/64 footprint.
	inCones map[int]Bitset
}

// Analysis returns the cached structural analysis of c, computing it on
// first use. The result is shared; callers must treat it as read-only.
func (c *Circuit) Analysis() *Analysis {
	c.analysisOnce.Do(func() {
		a := &Analysis{
			Levels:  c.Levels(),
			c:       c,
			inCones: make(map[int]Bitset),
		}
		for _, l := range a.Levels {
			if l > a.MaxLevel {
				a.MaxLevel = l
			}
		}
		c.analysis = a
	})
	return c.analysis
}

// FaninConeBits returns the fanin cone of root (including root) as a
// bitset, memoized per root. The returned bitset is shared: callers must
// not modify it.
func (a *Analysis) FaninConeBits(root int) Bitset {
	a.mu.RLock()
	b, ok := a.inCones[root]
	a.mu.RUnlock()
	if ok {
		return b
	}
	b = NewBitset(len(a.c.Gates))
	b.Set(root)
	stack := []int{root}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range a.c.Gates[g].Fanin {
			if !b.Has(f) {
				b.Set(f)
				stack = append(stack, f)
			}
		}
	}
	a.mu.Lock()
	if prev, ok := a.inCones[root]; ok {
		b = prev // another goroutine computed it concurrently
	} else {
		a.inCones[root] = b
	}
	a.mu.Unlock()
	return b
}

// Reaches reports whether gate to lies in the fanout cone of from, i.e.
// whether a value change at from can structurally influence to. It is
// answered from the fanin cone of to: the diagnosis sweeps ask about
// many candidate sources against few observed outputs, so memoizing one
// cone per output is far cheaper than one per source.
func (a *Analysis) Reaches(from, to int) bool {
	return a.FaninConeBits(to).Has(from)
}

// Bitset is a packed gate-ID set.
type Bitset []uint64

// NewBitset returns an empty bitset able to hold IDs 0..n-1.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Has reports whether id is in the set.
func (b Bitset) Has(id int) bool { return b[id>>6]>>(uint(id)&63)&1 == 1 }

// Set adds id to the set.
func (b Bitset) Set(id int) { b[id>>6] |= 1 << (uint(id) & 63) }

// Clear empties the set.
func (b Bitset) Clear() {
	for i := range b {
		b[i] = 0
	}
}

// Or adds every element of o (same capacity) to the set.
func (b Bitset) Or(o Bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// Levels returns, per gate, the longest distance (in gates) from any
// primary input. Inputs are level 0.
func (c *Circuit) Levels() []int {
	lv := make([]int, len(c.Gates))
	for i := range c.Gates {
		max := -1
		for _, f := range c.Gates[i].Fanin {
			if lv[f] > max {
				max = lv[f]
			}
		}
		lv[i] = max + 1
	}
	return lv
}

// FaninCone returns the set (as a gate-indexed bool slice) of gates with a
// path to root, including root itself. No production path calls it: it is
// the plain reference the tests check Analysis.FaninConeBits against.
func (c *Circuit) FaninCone(root int) []bool {
	in := make([]bool, len(c.Gates))
	stack := []int{root}
	in[root] = true
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Gates[g].Fanin {
			if !in[f] {
				in[f] = true
				stack = append(stack, f)
			}
		}
	}
	return in
}

// FanoutCone returns the set of gates reachable from root, including root.
// No production path calls it: it is the plain reference the tests check
// Analysis.Reaches against.
func (c *Circuit) FanoutCone(root int) []bool {
	out := make([]bool, len(c.Gates))
	stack := []int{root}
	out[root] = true
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Gates[g].Fanout {
			if !out[f] {
				out[f] = true
				stack = append(stack, f)
			}
		}
	}
	return out
}

// Distances returns, per gate, the length (in edges) of a shortest
// undirected path in the gate connection graph to any gate in from; gates
// in from have distance 0 and unreachable gates have distance -1. This is
// the "distance to the nearest error" metric of Table 3.
func (c *Circuit) Distances(from []int) []int {
	dist := make([]int, len(c.Gates))
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, len(from))
	for _, g := range from {
		if g >= 0 && g < len(c.Gates) && dist[g] == -1 {
			dist[g] = 0
			queue = append(queue, g)
		}
	}
	for head := 0; head < len(queue); head++ {
		g := queue[head]
		d := dist[g] + 1
		for _, n := range c.Gates[g].Fanin {
			if dist[n] == -1 {
				dist[n] = d
				queue = append(queue, n)
			}
		}
		for _, n := range c.Gates[g].Fanout {
			if dist[n] == -1 {
				dist[n] = d
				queue = append(queue, n)
			}
		}
	}
	return dist
}

// CheckTopological verifies the structural invariant that every gate's
// fanins precede it, returning the first violating gate ID or -1.
func (c *Circuit) CheckTopological() int {
	for i := range c.Gates {
		for _, f := range c.Gates[i].Fanin {
			if f >= i {
				return i
			}
		}
	}
	return -1
}
