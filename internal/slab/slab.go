// Package slab provides an index-addressed chunked slab allocator: objects
// live in fixed-size blocks, are addressed by int32 slot index, and freed
// slots recycle through a free list. Two properties make it the memory
// substrate of the simulators (DESIGN.md §13):
//
//   - pointers returned by At are stable for the slab's lifetime (blocks are
//     never moved or reallocated), so event queues and cross-references can
//     hold *T across arbitrary growth; and
//   - the high-water slot count — not the number of objects ever allocated —
//     bounds heap use, so a simulation that recycles completed flows runs
//     10M flows in the footprint of its peak concurrency.
//
// The slab is deterministic: Alloc order depends only on the Alloc/Free call
// sequence (the free list is LIFO), so same-seed simulator runs place every
// flow in the same slot, which checkpoint/restore relies on.
package slab

import "math/bits"

// Slab is a chunked allocator of T. The zero value is not usable; call New.
// Slab is not safe for concurrent mutation; the simulators allocate and free
// only from their coordinator goroutine.
type Slab[T any] struct {
	blocks    [][]T
	blockSize int
	free      []int32 // LIFO free list of recycled slots
	next      int32   // lowest never-allocated slot
	live      []uint64
}

// New returns a slab with the given block size (rounded up to at least 64).
func New[T any](blockSize int) *Slab[T] {
	if blockSize < 64 {
		blockSize = 64
	}
	return &Slab[T]{blockSize: blockSize}
}

// Alloc returns a free slot index and its object. Recycled slots retain
// their previous contents — deliberately, so per-slot buffers (a flow's
// path-link slice, say) are reused instead of reallocated; the caller must
// fully initialize every field it reads.
func (s *Slab[T]) Alloc() (int32, *T) {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		idx = s.next
		s.next++
		if int(idx)/s.blockSize >= len(s.blocks) {
			s.blocks = append(s.blocks, make([]T, s.blockSize))
		}
	}
	w, b := int(idx)/64, uint(idx)%64
	for w >= len(s.live) {
		s.live = append(s.live, 0)
	}
	s.live[w] |= 1 << b
	return idx, s.At(idx)
}

// Free recycles a slot. Freeing a slot that is not live panics: a double
// free would hand the same slot to two owners, the worst simulator bug.
func (s *Slab[T]) Free(idx int32) {
	w, b := int(idx)/64, uint(idx)%64
	if idx < 0 || idx >= s.next || s.live[w]&(1<<b) == 0 {
		panic("slab: free of non-live slot")
	}
	s.live[w] &^= 1 << b
	s.free = append(s.free, idx)
}

// At returns the object at slot idx. The pointer is stable for the slab's
// lifetime. At does not check liveness (the hot path indexes known-live
// slots); out-of-range indices panic via the slice bounds check.
func (s *Slab[T]) At(idx int32) *T {
	return &s.blocks[int(idx)/s.blockSize][int(idx)%s.blockSize]
}

// Live reports whether slot idx currently holds an allocated object.
func (s *Slab[T]) Live(idx int32) bool {
	if idx < 0 || idx >= s.next {
		return false
	}
	return s.live[int(idx)/64]&(1<<(uint(idx)%64)) != 0
}

// HighWater returns the peak slot count ever allocated — the quantity that
// bounds the slab's heap footprint regardless of how many objects have
// passed through it.
func (s *Slab[T]) HighWater() int { return int(s.next) }

// Range calls f for every live slot in ascending index order, stopping if f
// returns false. Iteration order is deterministic.
func (s *Slab[T]) Range(f func(idx int32, t *T) bool) {
	for w, word := range s.live {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			idx := int32(w*64 + b)
			if !f(idx, s.At(idx)) {
				return
			}
		}
	}
}

// FreeList returns a copy of the free list (LIFO order: the last element is
// the next slot Alloc hands out) and the never-allocated frontier. Together
// with the live set, this is the slab's full allocation state — what a
// checkpoint must persist for restored runs to place objects identically.
func (s *Slab[T]) FreeList() (free []int32, next int32) {
	return append([]int32(nil), s.free...), s.next
}

// Restore rebuilds the slab's allocation state from a checkpoint: next
// slots exist, the given free list awaits reuse (same LIFO order), and
// every slot not on the free list below next is live. Object contents are
// the caller's to refill via At. Restore panics on an inconsistent state.
func (s *Slab[T]) Restore(free []int32, next int32) {
	if next < 0 {
		panic("slab: restore with negative frontier")
	}
	s.next = next
	s.blocks = s.blocks[:0]
	for int(next) > len(s.blocks)*s.blockSize {
		s.blocks = append(s.blocks, make([]T, s.blockSize))
	}
	s.live = make([]uint64, (int(next)+63)/64)
	for i := int32(0); i < next; i++ {
		s.live[int(i)/64] |= 1 << (uint(i) % 64)
	}
	s.free = append(s.free[:0], free...)
	for _, idx := range free {
		w, b := int(idx)/64, uint(idx)%64
		if idx < 0 || idx >= next || s.live[w]&(1<<b) == 0 {
			panic("slab: restore free list inconsistent")
		}
		s.live[w] &^= 1 << b
	}
}
