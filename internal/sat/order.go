package sat

import "math/bits"

// varOrder is the VSIDS decision queue. It keeps one strict total order
// over the queued variables — higher activity first, lower index on
// ties — split across two tiers:
//
//   - variables with activity > 0 live in an indexed binary max-heap;
//   - variables with activity == 0 are all tied, so their order is plain
//     index order: they live in a bitset, and popping one is a
//     trailing-zero count from a low-word cursor.
//
// Every heap member outranks every bitset member, so removeMax returns
// exactly the variable one heap over all of them would return, and the
// search trajectory does not depend on the split. The split matters for
// speed: on diagnosis instances most variables are never bumped (their
// cones never reach a conflict), and the decide loop of an
// enumeration pops each of them once per model. From the bitset such a
// pop costs a few instructions instead of a heap sift-down.
//
// Activities only grow, except through the global rescale in bumpVarBy,
// which must call rescaled to move underflowed variables back to the
// bitset tier and restore heap order.
type varOrder struct {
	heap []Var
	pos  []int32 // heap position of each variable, -1 when not in the heap

	zero  []uint64 // bitset of queued activity-0 variables
	zlo   int      // no bit is set in zero[:zlo]
	nzero int      // number of set bits in zero
}

func (o *varOrder) empty() bool { return len(o.heap) == 0 && o.nzero == 0 }

func (o *varOrder) inZero(v Var) bool {
	w := int(v) >> 6
	return w < len(o.zero) && o.zero[w]&(1<<(uint(v)&63)) != 0
}

func (o *varOrder) insert(v Var, act []float64) {
	for int(v) >= len(o.pos) {
		o.pos = append(o.pos, -1)
	}
	for int(v)>>6 >= len(o.zero) {
		o.zero = append(o.zero, 0)
	}
	if act[v] > 0 {
		o.heapInsert(v, act)
		return
	}
	w, bit := int(v)>>6, uint64(1)<<(uint(v)&63)
	if o.zero[w]&bit != 0 {
		return
	}
	o.zero[w] |= bit
	o.nzero++
	if w < o.zlo {
		o.zlo = w
	}
}

func (o *varOrder) heapInsert(v Var, act []float64) {
	if o.pos[v] >= 0 {
		return
	}
	o.pos[v] = int32(len(o.heap))
	o.heap = append(o.heap, v)
	o.up(int(o.pos[v]), act)
}

// update restores the order after act[v] grew: a heap member sifts up,
// and a bitset member whose activity left zero moves to the heap.
func (o *varOrder) update(v Var, act []float64) {
	if int(v) < len(o.pos) && o.pos[v] >= 0 {
		o.up(int(o.pos[v]), act)
		return
	}
	if act[v] > 0 && o.inZero(v) {
		o.zero[int(v)>>6] &^= 1 << (uint(v) & 63)
		o.nzero--
		o.heapInsert(v, act)
	}
}

// rescaled restores both tiers after every activity was multiplied by
// one positive factor. Scaling keeps the order of unequal activities
// but can make two of them equal (index order must then decide) or
// underflow one to zero (it then belongs in the bitset).
func (o *varOrder) rescaled(act []float64) {
	kept := o.heap[:0]
	for _, v := range o.heap {
		o.pos[v] = -1
		if act[v] > 0 {
			kept = append(kept, v)
		} else {
			o.insert(v, act)
		}
	}
	o.heap = kept
	for i, v := range o.heap {
		o.pos[v] = int32(i)
	}
	for i := len(o.heap)/2 - 1; i >= 0; i-- {
		o.down(i, act)
	}
}

// removeMax pops the highest-ranked queued variable. The queue must not
// be empty.
func (o *varOrder) removeMax(act []float64) Var {
	if len(o.heap) == 0 {
		for o.zero[o.zlo] == 0 {
			o.zlo++
		}
		w := o.zero[o.zlo]
		o.zero[o.zlo] = w & (w - 1)
		o.nzero--
		return Var(o.zlo<<6 | bits.TrailingZeros64(w))
	}
	v := o.heap[0]
	last := o.heap[len(o.heap)-1]
	o.heap = o.heap[:len(o.heap)-1]
	o.pos[v] = -1
	if len(o.heap) > 0 {
		o.heap[0] = last
		o.pos[last] = 0
		o.down(0, act)
	}
	return v
}

// clone returns an independent copy of the queue.
func (o *varOrder) clone() varOrder {
	return varOrder{
		heap:  append([]Var(nil), o.heap...),
		pos:   append([]int32(nil), o.pos...),
		zero:  append([]uint64(nil), o.zero...),
		zlo:   o.zlo,
		nzero: o.nzero,
	}
}

func heapLess(a, b Var, act []float64) bool {
	if act[a] != act[b] {
		return act[a] > act[b]
	}
	return a < b
}

func (o *varOrder) up(i int, act []float64) {
	v := o.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(v, o.heap[parent], act) {
			break
		}
		o.heap[i] = o.heap[parent]
		o.pos[o.heap[i]] = int32(i)
		i = parent
	}
	o.heap[i] = v
	o.pos[v] = int32(i)
}

func (o *varOrder) down(i int, act []float64) {
	v := o.heap[i]
	for {
		l := 2*i + 1
		if l >= len(o.heap) {
			break
		}
		best := l
		if r := l + 1; r < len(o.heap) && heapLess(o.heap[r], o.heap[l], act) {
			best = r
		}
		if !heapLess(o.heap[best], v, act) {
			break
		}
		o.heap[i] = o.heap[best]
		o.pos[o.heap[i]] = int32(i)
		i = best
	}
	o.heap[i] = v
	o.pos[v] = int32(i)
}
