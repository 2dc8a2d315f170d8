// Package minheap provides the hand-rolled binary min-heap of the
// shortest-path kernels in internal/fluid. container/heap
// would box every item through interface{} on Push/Pop, allocating once per
// edge relaxation; this implementation keeps items inline in two flat arrays
// and allocates only when they grow.
package minheap

import (
	"math"
	"math/bits"
)

// Item is a (node, priority) pair. Node is an index into the caller's graph
// or arc arrays; Pri is the tentative distance.
type Item struct {
	Node int32
	Pri  float64
}

// Heap is a binary min-heap ordered by Item.Pri. The zero value is an empty
// heap ready for use; for hot loops, allocate once with New(n) and Reset
// between runs.
//
// An item is stored as keys[i] = key(Pri) beside nodes[i] = Node: the image
// is taken once in Push and inverted once in Pop's return, so the sift loops
// compare and move bare integers. Slots [0, n) are the heap in the usual
// array order; slots past n hold whatever was left there.
type Heap struct {
	keys  []uint64
	nodes []int32 // len(nodes) == len(keys)
	n     int
}

// New returns an empty heap with room for n items. Pushing more grows it.
func New(n int) Heap {
	return Heap{keys: make([]uint64, n), nodes: make([]int32, n)}
}

// Len returns the number of items in the heap.
func (h *Heap) Len() int { return h.n }

// Reset empties the heap, keeping the backing arrays.
func (h *Heap) Reset() { h.n = 0 }

// Push adds an item.
func (h *Heap) Push(it Item) {
	i := h.n
	if i == len(h.keys) {
		h.grow()
	}
	h.n = i + 1
	keys := h.keys
	nodes := h.nodes[:len(keys)]
	k := key(it.Pri)
	for i > 0 {
		p := (i - 1) / 2
		if keys[p] <= k {
			break
		}
		keys[i], nodes[i] = keys[p], nodes[p]
		i = p
	}
	keys[i], nodes[i] = k, it.Node
}

// grow doubles the capacity of a full heap.
func (h *Heap) grow() {
	c := max(2*len(h.keys), 4)
	keys, nodes := make([]uint64, c), make([]int32, c)
	copy(keys, h.keys)
	copy(nodes, h.nodes)
	h.keys, h.nodes = keys, nodes
}

// key is an order-preserving uint64 image of a priority: key(a) < key(b)
// exactly when a < b, for every pair of non-NaN floats. A non-negative
// float's bits already order as integers and only move up by 2^63; a negative
// one's are negated (two's complement), which reverses their order and lands
// −0 on key(+0) — the two compare equal as floats and must tie here too. A
// NaN sorts above +Inf, or below −Inf with its sign bit set, instead of
// comparing false with everything; a heap holding one has no defined order
// either way.
func key(p float64) uint64 {
	b := math.Float64bits(p)
	neg := uint64(int64(b) >> 63)
	return (b ^ neg) - (neg | 1<<63)
}

// unkey inverts key: unkey(key(p)) has p's bits for every p, NaNs included,
// except that −0 comes back as +0, the float that owns their shared key.
func unkey(k uint64) float64 {
	neg := ^uint64(int64(k) >> 63)
	return math.Float64frombits((k ^ neg) - (neg | 1<<63))
}

// Pop removes and returns the minimum-priority item; a −0 priority comes
// back as +0. It panics on an empty heap (callers loop on Len() > 0).
//
// Which child a sift-down step descends to is output-defining for the GK
// kernel (DESIGN.md §7): the right one only when it is strictly smaller.
// That choice is computed as l plus the borrow of keys[l+1] − keys[l], not
// branched on — on GK's tie-heavy lengths the branch is a coin toss. The
// vacated slot last still holds moved, so a right child at index last needs
// no bounds test: if it loses, left is taken; if it wins, moved < left, and
// the step stops on moved <= keys[last] exactly where a bounds-tested one
// (frozenHeap in the tests) stops on moved <= left.
func (h *Heap) Pop() Item {
	keys := h.keys
	nodes := h.nodes[:len(keys)]
	last := h.n - 1
	top := Item{Node: nodes[0], Pri: unkey(keys[0])}
	moved, movedNode := keys[last], nodes[last]
	h.n = last
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		_, right := bits.Sub64(keys[l+1], keys[l], 0)
		m := l + int(right)
		if moved <= keys[m] {
			break
		}
		keys[i], nodes[i] = keys[m], nodes[m]
		i = m
	}
	keys[i], nodes[i] = moved, movedNode
	return top
}
