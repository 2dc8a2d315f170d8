// Package minheap provides the hand-rolled binary min-heap shared by the
// shortest-path kernels in internal/graph and internal/fluid. container/heap
// would box every item through interface{} on Push/Pop, allocating once per
// edge relaxation; this implementation keeps items inline in a slice and
// allocates only when the backing array grows.
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
// heap ready for use; for hot loops, allocate once with make(Heap, 0, n) and
// Reset between runs.
type Heap []Item

// Len returns the number of items in the heap.
func (h Heap) Len() int { return len(h) }

// Reset empties the heap, keeping the backing array.
func (h *Heap) Reset() { *h = (*h)[:0] }

// Push adds an item.
func (h *Heap) Push(it Item) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].Pri <= it.Pri {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = it
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

// Pop removes and returns the minimum-priority item. It panics on an empty
// heap (callers loop on Len() > 0).
//
// Which child a sift-down step descends to is output-defining for the GK
// kernel (DESIGN.md §7): the right one only when it is strictly smaller.
// That choice is computed as l plus the borrow of key(right) − key(left),
// not branched on — on GK's tie-heavy lengths the branch is a coin toss. The
// vacated slot s[last] still holds moved, so a right child at index last
// needs no bounds test: if it loses, left is taken; if it wins, moved < left,
// and the step stops on moved <= s[last] exactly where a bounds-tested one
// (frozenHeap in the tests) stops on moved <= left.
func (h *Heap) Pop() Item {
	s := *h
	top := s[0]
	last := len(s) - 1
	moved := s[last]
	*h = s[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		_, right := bits.Sub64(key(s[l+1].Pri), key(s[l].Pri), 0)
		m := l + int(right)
		if moved.Pri <= s[m].Pri {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = moved
	return top
}
