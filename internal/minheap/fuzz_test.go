package minheap

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// frozenHeap is a verbatim copy of Heap's Push and Pop as of PR 13, kept
// only as the tie-order reference: GK lengths are δ·(1+ε)^k, so exact
// priority ties are the norm and which tied item pops first selects the
// routed path (DESIGN.md §7). Do not "fix" or modernise it — a Heap refactor
// must keep popping the same (Node, Pri) sequence as this copy.
type frozenHeap []Item

func (h *frozenHeap) push(it Item) {
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

func (h *frozenHeap) pop() Item {
	s := *h
	top := s[0]
	last := len(s) - 1
	moved := s[last]
	s = s[:last]
	*h = s
	if last == 0 {
		return top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && s[r].Pri < s[l].Pri {
			m = r
		}
		if moved.Pri <= s[m].Pri {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = moved
	return top
}

// FuzzHeapVsSortOracle drives an arbitrary interleaving of Push and Pop
// operations decoded from the fuzz input and checks the heap against two
// oracles. A sorted slice: every Pop must return the minimum priority
// currently held, and draining the heap must yield a non-decreasing sequence
// that is a permutation of everything pushed. And frozenHeap under the same
// op stream: every Pop must return the identical (Node, Pri) item, ties
// included.
func FuzzHeapVsSortOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{200, 1, 220, 2, 3, 250, 4})
	f.Add([]byte{5, 5, 5, 5, 255, 255, 0, 0})
	// +0 and −0 as siblings: the left one must win.
	f.Add([]byte{157, 151, 150, 3, 255, 255, 255, 255})
	// Three spellings of zero, negative ties, −Inf.
	f.Add([]byte{100, 150, 151, 100, 116, 116, 159, 159, 157, 250, 250, 250, 250, 250})
	f.Fuzz(checkHeapOps)
}

// hostile are priorities whose float order and bit patterns disagree, or
// that sit at the edges of the format: the two zeros (equal as floats, one
// bit apart), subnormals of both signs, the smallest normal, the extreme
// finite values and both infinities. The heap orders by an integer image of
// the float (see key), so these are where it could part from frozenHeap's
// float comparisons.
var hostile = [...]float64{
	math.Copysign(0, -1), 0, 5e-324, -5e-324, 2.2250738585072014e-308,
	-math.MaxFloat64, math.MaxFloat64, math.Inf(-1), math.Inf(1), -0.25,
}

// TestHeapTieOrderMatchesFrozen runs the fuzz body over seeded tie-heavy op
// streams far longer than the seed corpus, so plain `go test` pins the
// (Node, Pri) pop sequence too.
func TestHeapTieOrderMatchesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 1+rng.Intn(600))
		for i := range data {
			data[i] = byte(rng.Intn(256))
			if trial%2 == 0 && data[i] < 200 {
				data[i] &= 3 // a dozen distinct priorities: almost every pop breaks a tie
			}
		}
		checkHeapOps(t, data)
	}
}

// checkHeapOps runs one op stream against frozenHeap on three heaps that
// reach the same states through different slot histories: the zero value and
// New(1), which between them cross every doubling, and a heap reused after
// Reset, whose slots past the length hold stale entries — Pop reads one slot
// past the shrunk heap, and what it finds there must be the item it just
// took out, never a leftover.
func checkHeapOps(t *testing.T, data []byte) {
	checkHeapOpsOn(t, "zero-value", new(Heap), data)
	grown := New(1)
	checkHeapOpsOn(t, "New(1)", &grown, data)
	reused := New(len(data))
	for i := range data {
		reused.Push(Item{Node: int32(-1 - i), Pri: float64(i%5) - 7})
	}
	reused.Reset()
	checkHeapOpsOn(t, "reused", &reused, data)
}

func checkHeapOpsOn(t *testing.T, which string, h *Heap, data []byte) {
	defer func() {
		if t.Failed() {
			t.Logf("on the %s heap", which)
		}
	}()
	var frozen frozenHeap
	var oracle []float64 // kept sorted ascending
	pushed := 0
	for i, b := range data {
		if b >= 200 && len(oracle) > 0 {
			got := h.Pop()
			if got.Pri != oracle[0] {
				t.Fatalf("op %d: Pop pri = %v, oracle min = %v", i, got.Pri, oracle[0])
			}
			if want := frozen.pop(); got != want {
				t.Fatalf("op %d: Pop = %+v, frozen reference = %+v (tie order moved)", i, got, want)
			}
			oracle = oracle[1:]
			continue
		}
		// Derive a priority that collides often (exercises ties) but also
		// varies with position; bytes 100–149 mirror it below zero (−0 when
		// it is 0) and 150–199 draw from hostile.
		pri := float64(b%16) + float64(i%3)*0.25
		if b >= 150 {
			pri = hostile[int(b)%len(hostile)]
		} else if b >= 100 {
			pri = -pri
		}
		h.Push(Item{Node: int32(pushed), Pri: pri})
		frozen.push(Item{Node: int32(pushed), Pri: pri})
		pushed++
		j := sort.SearchFloat64s(oracle, pri)
		oracle = append(oracle, 0)
		copy(oracle[j+1:], oracle[j:])
		oracle[j] = pri
	}
	if h.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle holds %d", h.Len(), len(oracle))
	}
	prev := math.Inf(-1)
	for h.Len() > 0 {
		it := h.Pop()
		if want := frozen.pop(); it != want {
			t.Fatalf("drain Pop = %+v, frozen reference = %+v (tie order moved)", it, want)
		}
		if it.Pri < prev {
			t.Fatalf("drain not sorted: %v after %v", it.Pri, prev)
		}
		if it.Pri != oracle[0] {
			t.Fatalf("drain pri = %v, oracle min = %v", it.Pri, oracle[0])
		}
		oracle = oracle[1:]
		prev = it.Pri
	}
}
