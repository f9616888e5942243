package sat

import "slices"

// watchSlab stores every literal's watch list in one flat []watch,
// addressed by per-literal {off, n, cap} ranges — the watch-side twin
// of the clause arena. Propagation walks one contiguous region per
// literal instead of chasing [][]watch headers, and Clone copies the
// whole structure with two bulk copies instead of carving a slice per
// literal.
//
// A push into a full range relocates that list to the end of the slab
// (doubling its capacity, amortized O(1)); the abandoned words are
// counted in wasted and reclaimed by the next rebuild, which lays all
// lists back out contiguously with exact capacities. Ranges never
// overlap, so in-place filtering during propagation cannot clobber a
// neighbour, and growing the backing array leaves offsets valid.
type watchSlab struct {
	rng    []watchRange // indexed by Lit, two per variable
	data   []watch
	wasted uint32 // words abandoned by relocations since the last rebuild
}

// watchRange addresses one literal's watch list inside the slab.
type watchRange struct {
	off uint32 // first element in data
	n   uint32 // live entries
	cap uint32 // reserved entries
}

// newVar reserves the two (empty) watch lists of a fresh variable.
func (sl *watchSlab) newVar() {
	sl.rng = append(sl.rng, watchRange{}, watchRange{})
}

// push appends w to literal p's watch list, relocating the list to the
// slab's end when it is full.
func (sl *watchSlab) push(p Lit, w watch) {
	r := &sl.rng[p]
	if r.n == r.cap {
		sl.relocate(r)
	}
	sl.data[r.off+r.n] = w
	r.n++
}

// relocate moves r's list to the end of the slab with doubled capacity.
// The old region is abandoned (counted in wasted) until the next
// rebuild compacts the slab.
func (sl *watchSlab) relocate(r *watchRange) {
	newCap := r.cap * 2
	if newCap < 4 {
		newCap = 4
	}
	off := uint32(len(sl.data))
	// Not append(sl.data, make(...)...): race builds do not elide that
	// make, so every relocation would allocate there. Entries past a
	// range's n are never read, so the grown tail needs no zeroing.
	sl.data = slices.Grow(sl.data, int(newCap))[:off+newCap]
	copy(sl.data[off:off+r.n], sl.data[r.off:r.off+r.n])
	sl.wasted += r.cap
	r.off = off
	r.cap = newCap
}
