package fluid

import (
	"math"
	"math/rand"
	"testing"

	"beyondft/internal/tm"
	"beyondft/internal/topology"
)

// BenchmarkMaxConcurrentFlow is the tracked GK-solver benchmark (see
// BENCH_pr2.json): a Jellyfish at laptop scale under a longest-matching TM,
// the paper's workhorse evaluation. It exercises the incremental D(l)
// bookkeeping, the parallel per-source dual-bound distances, and the
// early-terminating Dijkstra on the routing path.
// benchGKOptions lives at package scope so the compiler cannot prove
// Observer is nil and fold the guard away: the benchmark below measures
// the real hot-path sequence — interface nil check per phase, integer
// increment per routing iteration.
var benchGKOptions GKOptions

// BenchmarkGKObserverDisabled guards the observability layer's
// zero-overhead contract (tracked in BENCH_pr5.json): with a nil
// GKObserver, the hook the GK hot loop executes must cost 0 allocs/op.
// The solve-level wall-time check rides on BenchmarkMaxConcurrentFlow and
// BenchmarkGKMaxConcurrentFlow staying within noise of their BENCH_pr3
// values — the same code path now includes these guards.
func BenchmarkGKObserverDisabled(b *testing.B) {
	iters := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if benchGKOptions.Observer != nil {
			benchGKOptions.Observer.GKPhase(i, iters, 0.5, 1.0)
		}
		iters++
		if benchGKOptions.Observer != nil {
			benchGKOptions.Observer.GKDone(i, iters, 0.5, 1.0)
		}
	}
	if iters != b.N {
		b.Fatal("loop elided")
	}
}

func BenchmarkMaxConcurrentFlow(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	jf := topology.NewJellyfish(64, 8, 6, rng)
	var racks []int
	for r := 0; r < jf.G.N(); r += 2 {
		racks = append(racks, r)
	}
	m := tm.LongestMatching(jf.G, racks, tm.Uniform(6))
	nw := NewNetwork(jf.G, 1.0)
	comms := Commodities(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.1})
		if res.Throughput <= 0 {
			b.Fatal("zero throughput")
		}
	}
}

// BenchmarkGKRoutingDijkstra times the unit of GK work (DESIGN.md §7): one
// early-terminated routing Dijkstra between the farthest pair of a
// Jellyfish-54. Consecutive ops run on the length functions of consecutive
// phase boundaries of a real solve: on one fixed vector the branch predictor
// learns the whole pop sequence and the benchmark cannot see what the heap's
// data-dependent choices cost in a solve, where no two searches repeat. It
// must not allocate — `make bench` gates it at 0 allocs/op, and
// TestGKRoutingDijkstraAllocs does for `go test`.
func BenchmarkGKRoutingDijkstra(b *testing.B) {
	nw, src, dst, lengths := routingDijkstraInputs(b)
	sp := newSPState(nw)
	sp.dijkstra(src, lengths[0], nil, dst) // grow the heap to its working size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := sp.dijkstra(src, lengths[i%len(lengths)], nil, dst); math.IsInf(d[dst], 1) {
			b.Fatal("farthest pair unreachable")
		}
	}
}

// TestGKRoutingDijkstraAllocs is the benchmark's 0 allocs/op gate for plain
// `go test`: the routing kernel, and the heap once it has grown to the size
// these searches need, must not allocate per call. One pass over every
// length vector first, so growth is behind it.
func TestGKRoutingDijkstraAllocs(t *testing.T) {
	nw, src, dst, lengths := routingDijkstraInputs(t)
	sp := newSPState(nw)
	for _, l := range lengths {
		sp.dijkstra(src, l, nil, dst)
	}
	i := 0
	if n := testing.AllocsPerRun(4*len(lengths), func() {
		sp.dijkstra(src, lengths[i%len(lengths)], nil, dst)
		i++
	}); n != 0 {
		t.Fatalf("routing Dijkstra allocates %v times per call, want 0", n)
	}
}

// routingDijkstraInputs is the farthest pair of a Jellyfish-54 and the
// length functions of 96 consecutive phase boundaries of a real solve on it.
func routingDijkstraInputs(tb testing.TB) (nw *Network, src, dst int, lengths [][]float64) {
	rng := rand.New(rand.NewSource(2))
	jf := topology.NewJellyfish(54, 9, 6, rng)
	all := make([]int, jf.G.N())
	for i := range all {
		all[i] = i
	}
	far := -1
	for u, row := range jf.G.Frozen().BFSMany(all) {
		for v, d := range row {
			if d > far {
				src, dst, far = u, v, d
			}
		}
	}
	nw = NewNetwork(jf.G, 1.0)
	const skip, keep = 8, 96 // past the all-equal opening phases, then 96 boundaries
	gkDebugBoundary = func(_ float64, length []float64) {
		lengths = append(lengths, append([]float64(nil), length...))
	}
	MaxConcurrentFlow(nw, Commodities(tm.LongestMatching(jf.G, all, tm.Uniform(6))),
		GKOptions{Epsilon: 0.08, Workers: 1, MaxPhases: skip + keep})
	gkDebugBoundary = nil
	if lengths = lengths[skip:]; len(lengths) < 64 {
		tb.Fatalf("solve ended after %d phases; need 64 length vectors", skip+len(lengths))
	}
	return nw, src, dst, lengths
}
