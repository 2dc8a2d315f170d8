package sim

import (
	"encoding/json"
	"math"
	"testing"
)

func TestRNGDeterministicAndSeedSensitive(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
	c := NewRNG(8)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(7).State == c.State {
			same++
		}
		c.Uint64()
	}
	if x, y := NewRNG(7).Uint64(), NewRNG(8).Uint64(); x == y {
		t.Fatalf("adjacent seeds produced identical first draw %d", x)
	}
}

func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var restored RNG
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if r.Uint64() != restored.Uint64() {
			t.Fatalf("restored stream diverged at draw %d after round-trip", i)
		}
	}
}

func TestRNGRangesAndMoments(t *testing.T) {
	r := NewRNG(3)
	const n = 200_000
	var sumF, sumE float64
	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sumF += f
		e := r.ExpFloat64()
		if e < 0 {
			t.Fatalf("ExpFloat64 negative: %v", e)
		}
		sumE += e
		counts[r.Intn(10)]++
	}
	if m := sumF / n; math.Abs(m-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", m)
	}
	if m := sumE / n; math.Abs(m-1) > 0.02 {
		t.Fatalf("ExpFloat64 mean %v, want ~1", m)
	}
	for d, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("Intn(10) digit %d count %d far from uniform %d", d, c, n/10)
		}
	}
}

func TestRNGShuffleIsPermutation(t *testing.T) {
	r := NewRNG(5)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			t.Fatalf("duplicate element %d after shuffle", x)
		}
		seen[x] = true
	}
}

func TestScheduleExactPreservesTieOrder(t *testing.T) {
	// Two same-time events recorded from one engine, re-armed in the
	// opposite insertion order on a fresh engine with their original seqs:
	// execution order must follow the recorded seqs, not insertion order.
	e1 := NewEngine()
	var order []string
	sa := e1.Schedule(10, func() {})
	sb := e1.Schedule(10, func() {})

	e2 := NewEngine()
	e2.SetClock(0, e1.SeqClock())
	e2.SchedulePacketExact(10, sb, func(any) { order = append(order, "b") }, nil)
	e2.SchedulePacketExact(10, sa, func(any) { order = append(order, "a") }, nil)
	e2.RunAll()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("tie order after restore = %v, want [a b]", order)
	}
	if e2.SeqClock() != e1.SeqClock() {
		t.Fatalf("seq clock %d, want %d", e2.SeqClock(), e1.SeqClock())
	}
	// Fresh events on the restored engine keep monotonic seqs.
	if s := e2.Schedule(20, func() {}); s <= sb {
		t.Fatalf("fresh seq %d not past restored counter %d", s, sb)
	}
}
