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
	h := New(16)
	for i := 0; i < 10; i++ {
		h.Push(Item{Node: int32(i), Pri: float64(i)})
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("len after reset = %d", h.Len())
	}
	if len(h.keys) != 16 || len(h.nodes) != 16 {
		t.Fatalf("reset changed capacity: %d keys, %d nodes", len(h.keys), len(h.nodes))
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

// TestKeyOrdersLikeFloats pins the integer image the heap compares: over hostile
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

// TestHeapPriorityRoundTrip states what Pop hands back now that a slot holds
// key(Pri) and not Pri: the pushed bits, for every float — NaNs of either sign
// and any payload included, though a heap holding one has no defined order —
// with one exception. −0 pops as +0: the two share a key because they compare
// equal, and both callers only push sums of non-negative lengths.
func TestHeapPriorityRoundTrip(t *testing.T) {
	vals := append([]float64{1, -1, math.Pi,
		math.NaN(), math.Copysign(math.NaN(), -1),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff0000000000001),
		math.Float64frombits(0x7fffffffffffffff), math.Float64frombits(0xffffffffffffffff),
	}, hostile[:]...)
	for _, p := range vals {
		var h Heap
		h.Push(Item{Node: 7, Pri: p})
		got := h.Pop()
		want := math.Float64bits(p)
		if want == 1<<63 {
			want = 0
		}
		if got.Node != 7 || math.Float64bits(got.Pri) != want {
			t.Errorf("pushed %v (%#x), popped %+v (%#x)", p, math.Float64bits(p), got, math.Float64bits(got.Pri))
		}
	}
}
