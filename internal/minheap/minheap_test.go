package minheap

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHeapSortsRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		var h Heap
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			p := rng.NormFloat64()
			want[i] = p
			h.Push(Item{Node: int32(i), Pri: p})
		}
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			got := h.Pop()
			if got.Pri != want[i] {
				t.Fatalf("trial %d: pop %d = %v, want %v", trial, i, got.Pri, want[i])
			}
		}
		if h.Len() != 0 {
			t.Fatalf("heap not empty after draining: %d", h.Len())
		}
	}
}

func TestHeapResetKeepsCapacity(t *testing.T) {
	h := make(Heap, 0, 16)
	for i := 0; i < 10; i++ {
		h.Push(Item{Node: int32(i), Pri: float64(i)})
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("len after reset = %d", h.Len())
	}
	if cap(h) < 10 {
		t.Fatalf("reset dropped capacity: %d", cap(h))
	}
	h.Push(Item{Node: 3, Pri: 3})
	if got := h.Pop(); got.Node != 3 {
		t.Fatalf("pop after reset = %+v", got)
	}
}

func TestHeapDuplicatePriorities(t *testing.T) {
	var h Heap
	for i := 0; i < 8; i++ {
		h.Push(Item{Node: int32(i), Pri: 1.0})
	}
	h.Push(Item{Node: 99, Pri: 0.5})
	if got := h.Pop(); got.Node != 99 {
		t.Fatalf("min not popped first: %+v", got)
	}
	for i := 0; i < 8; i++ {
		if got := h.Pop(); got.Pri != 1.0 {
			t.Fatalf("bad pri %v", got.Pri)
		}
	}
}

// TestKeyOrdersLikeFloats pins the integer image Pop compares: over hostile
// and random values of every magnitude, key(a) < key(b) exactly when a < b
// and key(a) == key(b) exactly when a == b (so −0 and +0 share a key). NaN
// is outside the contract; the test records where it lands.
func TestKeyOrdersLikeFloats(t *testing.T) {
	vals := append([]float64{-1, 1, -2.2250738585072014e-308}, hostile[:]...)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(600)-300)))
	}
	for _, a := range vals {
		for _, b := range vals {
			if (a < b) != (key(a) < key(b)) || (a == b) != (key(a) == key(b)) {
				t.Fatalf("key(%g)=%#x key(%g)=%#x disagree with the float order", a, key(a), b, key(b))
			}
		}
	}
	nan := math.NaN()
	if key(nan) <= key(math.Inf(1)) || key(math.Copysign(nan, -1)) >= key(math.Inf(-1)) {
		t.Fatalf("NaN keys moved: %#x, %#x", key(nan), key(math.Copysign(nan, -1)))
	}
}
