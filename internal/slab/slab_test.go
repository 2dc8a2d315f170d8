package slab

import (
	"testing"
)

type obj struct {
	id  int
	buf []int32
}

func TestAllocFreeRecyclesLIFO(t *testing.T) {
	s := New[obj](64)
	a, pa := s.Alloc()
	b, _ := s.Alloc()
	if a == b {
		t.Fatalf("distinct allocs shared slot %d", a)
	}
	pa.buf = append(pa.buf[:0], 1, 2, 3)
	s.Free(a)
	c, pc := s.Alloc()
	if c != a {
		t.Fatalf("LIFO recycle gave slot %d, want %d", c, a)
	}
	if cap(pc.buf) < 3 {
		t.Fatalf("recycled slot lost its buffer capacity")
	}
	if inUse(s) != 2 || s.HighWater() != 2 {
		t.Fatalf("inUse=%d highWater=%d, want 2,2", inUse(s), s.HighWater())
	}
}

func TestPointerStabilityAcrossGrowth(t *testing.T) {
	s := New[obj](64)
	idx, p := s.Alloc()
	p.id = 99
	for i := 0; i < 10_000; i++ {
		s.Alloc()
	}
	if q := s.At(idx); q != p || q.id != 99 {
		t.Fatalf("pointer moved after growth: %p vs %p (id %d)", q, p, q.id)
	}
}

func TestHighWaterBoundsChurn(t *testing.T) {
	// 100k alloc/free pairs with at most 8 concurrent objects: the slab must
	// never grow past 8 slots — the "memory flat in flow count" property.
	s := New[int](64)
	var liveIdx []int32
	for i := 0; i < 100_000; i++ {
		idx, p := s.Alloc()
		*p = i
		liveIdx = append(liveIdx, idx)
		if len(liveIdx) == 8 {
			s.Free(liveIdx[0])
			liveIdx = liveIdx[1:]
		}
	}
	if s.HighWater() > 8 {
		t.Fatalf("high water %d after bounded churn, want <= 8", s.HighWater())
	}
}

func TestRangeVisitsLiveAscending(t *testing.T) {
	s := New[int](64)
	var idxs []int32
	for i := 0; i < 200; i++ {
		idx, p := s.Alloc()
		*p = int(idx)
		idxs = append(idxs, idx)
	}
	for _, i := range []int{3, 77, 150} {
		s.Free(idxs[i])
	}
	var seen []int32
	s.Range(func(idx int32, p *int) bool {
		if *p != int(idx) {
			t.Fatalf("slot %d holds %d", idx, *p)
		}
		seen = append(seen, idx)
		return true
	})
	if len(seen) != 197 {
		t.Fatalf("ranged %d live slots, want 197", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("range not ascending at %d: %d after %d", i, seen[i], seen[i-1])
		}
	}
	// Early stop.
	n := 0
	s.Range(func(int32, *int) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("range ignored early stop: visited %d", n)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	s := New[int](64)
	idx, _ := s.Alloc()
	s.Free(idx)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	s.Free(idx)
}

func TestFreeListRestoreRoundTrip(t *testing.T) {
	s := New[obj](64)
	var idxs []int32
	for i := 0; i < 100; i++ {
		idx, p := s.Alloc()
		p.id = int(idx)
		idxs = append(idxs, idx)
	}
	s.Free(idxs[10])
	s.Free(idxs[42])
	free, next := s.FreeList()

	r := New[obj](64)
	r.Restore(free, next)
	if inUse(r) != inUse(s) || r.HighWater() != s.HighWater() {
		t.Fatalf("restored inUse=%d hw=%d, want %d,%d", inUse(r), r.HighWater(), inUse(s), s.HighWater())
	}
	if r.Live(idxs[10]) || r.Live(idxs[42]) || !r.Live(idxs[0]) {
		t.Fatal("restored liveness wrong")
	}
	// Future allocations must match: both slabs hand out the same slots.
	for i := 0; i < 5; i++ {
		a, _ := s.Alloc()
		b, _ := r.Alloc()
		if a != b {
			t.Fatalf("alloc %d diverged after restore: %d vs %d", i, b, a)
		}
	}
}

// inUse is the number of live objects: slots ever allocated less the free
// list.
func inUse[T any](s *Slab[T]) int { return int(s.next) - len(s.free) }
