package fluid

import (
	"math"
	"math/rand"
	"testing"

	"beyondft/internal/graph"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
)

// benchGKOptions lives at package scope so the compiler cannot prove
// Observer is nil and fold the guard away: the benchmark below measures
// the real hot-path sequence — interface nil check per phase, integer
// increment per routing iteration.
var benchGKOptions GKOptions

// BenchmarkGKObserverDisabled times the observability layer's
// zero-overhead contract: with a nil GKObserver, the hook the GK hot loop
// executes must cost 0 allocs/op (TestGKObserverDisabledAllocFree).
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

// BenchmarkMaxConcurrentFlow is a GK solve on a Jellyfish at laptop scale
// under a longest-matching TM, the paper's workhorse evaluation. It
// exercises the incremental D(l) bookkeeping, the parallel per-source
// dual-bound distances, and the early-terminating Dijkstra on the routing
// path.
func BenchmarkMaxConcurrentFlow(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	jf := topology.NewJellyfish(64, 8, 6, rng)
	var racks []int
	for r := 0; r < jf.G.N(); r += 2 {
		racks = append(racks, r)
	}
	m := tm.LongestMatching(jf.G, racks, func(int) int { return 6 })
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
// must not allocate: TestGKRoutingDijkstraAllocs gates it at 0 allocs/op.
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

// TestGKRoutingDijkstraAllocs is the benchmark's 0 allocs/op gate: the
// routing kernel, and the heap once it has grown to the size
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

// BenchmarkGKRoutingCertified times the goal-directed routing step on
// BenchmarkGKRoutingDijkstra's inputs: op i searches under the length
// function of boundary i with that boundary's potentials, as the first step
// of a phase does. TestGKRoutingCertifiedAllocs gates it at 0 allocs/op.
func BenchmarkGKRoutingCertified(b *testing.B) {
	nw, src, dst, lengths := routingDijkstraInputs(b)
	sp, pots := newSPState(nw), routingPotentials(nw, dst, lengths)
	sp.astar(src, dst, lengths[0], pots[0], nil) // grow the heap to its working size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d, _ := sp.astar(src, dst, lengths[i%len(lengths)], pots[i%len(pots)], nil); math.IsInf(d, 1) {
			b.Fatal("farthest pair unreachable")
		}
	}
}

// TestGKRoutingCertifiedAllocs is BenchmarkGKRoutingCertified's 0 allocs/op
// gate, after one pass over every length vector.
func TestGKRoutingCertifiedAllocs(t *testing.T) {
	nw, src, dst, lengths := routingDijkstraInputs(t)
	sp, pots := newSPState(nw), routingPotentials(nw, dst, lengths)
	for i, l := range lengths {
		sp.astar(src, dst, l, pots[i], nil)
	}
	i := 0
	if n := testing.AllocsPerRun(4*len(lengths), func() {
		sp.astar(src, dst, lengths[i%len(lengths)], pots[i%len(pots)], nil)
		i++
	}); n != 0 {
		t.Fatalf("goal-directed routing step allocates %v times per call, want 0", n)
	}
}

// BenchmarkGKRowRepair times what a destination's row costs per phase from
// phase 2 on in a cold solve: one raising pass (DESIGN.md §7, "Rows
// repaired, not rebuilt") on BenchmarkGKRoutingDijkstra's inputs. Op i copies in the farthest
// target's row and order as the repairs up to boundary i left them and
// repairs them under the lengths of boundary i+1, as the routing loop does
// at a destination's first step of a phase. TestGKRowRepairAllocs gates it
// at 0 allocs/op.
func BenchmarkGKRowRepair(b *testing.B) {
	nw, dst, lengths, rows, orders := rowRepairInputs(b)
	row, order := make([]float64, nw.N), make([]uint16, nw.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(rows)
		copy(row, rows[k])
		copy(order, orders[k])
		nw.repair(dst, lengths[k+1], row, order)
	}
}

// TestGKRowRepairAllocs is BenchmarkGKRowRepair's 0 allocs/op gate.
func TestGKRowRepairAllocs(t *testing.T) {
	nw, dst, lengths, rows, orders := rowRepairInputs(t)
	row, order := make([]float64, nw.N), make([]uint16, nw.N)
	i := 0
	if n := testing.AllocsPerRun(4*len(rows), func() {
		k := i % len(rows)
		copy(row, rows[k])
		copy(order, orders[k])
		nw.repair(dst, lengths[k+1], row, order)
		i++
	}); n != 0 {
		t.Fatalf("row repair allocates %v times per call, want 0", n)
	}
}

// rowRepairInputs is routingDijkstraInputs' network, target and length
// functions, with the target's row and order as a solve holds them at each
// boundary but the last: built and seeded at the first, then repaired under
// each boundary's lengths in turn.
func rowRepairInputs(tb testing.TB) (nw *Network, dst int, lengths, rows [][]float64, orders [][]uint16) {
	nw, _, dst, lengths = routingDijkstraInputs(tb)
	row, order := routingPotentials(nw, dst, lengths[:1])[0], make([]uint16, nw.N)
	seedOrder(row, order)
	for _, l := range lengths[1:] {
		rows, orders = append(rows, append([]float64(nil), row...)), append(orders, append([]uint16(nil), order...))
		nw.repair(dst, l, row, order)
	}
	return nw, dst, lengths, rows, orders
}

// routingPotentials is dst's row of potentials at each length function.
func routingPotentials(nw *Network, dst int, lengths [][]float64) [][]float64 {
	rev := reversedArcs(nw)
	sp, revLen := newSPState(nw), make([]float64, len(rev))
	pots := make([][]float64, len(lengths))
	for i, l := range lengths {
		for k, r := range rev {
			revLen[k] = l[r]
		}
		pots[i] = make([]float64, nw.N)
		sp.potentials(dst, revLen, pots[i])
	}
	return pots
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
	var buf graph.BFSBuffer
	for u, row := range jf.G.Frozen().BFSManyInto(&buf, all) {
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
	MaxConcurrentFlow(nw, Commodities(tm.LongestMatching(jf.G, all, func(int) int { return 6 })),
		GKOptions{Epsilon: 0.08, Workers: 1, MaxPhases: skip + keep})
	gkDebugBoundary = nil
	if lengths = lengths[skip:]; len(lengths) < 64 {
		tb.Fatalf("solve ended after %d phases; need 64 length vectors", skip+len(lengths))
	}
	return nw, src, dst, lengths
}

// BenchmarkGKRoutingResolved times the goal-directed routing step where its
// chains tie: from every switch of the hypercube Q_6 to its antipode, on the
// length function of every phase boundary of an all-to-all solve, each with
// that boundary's potentials. Many of these steps settle their ties by tail
// labels or by a prefix of dijkstra (TestGKRoutingResolvedAllocs checks that
// both happen). TestGKRoutingResolvedAllocs gates it at 0 allocs/op.
func BenchmarkGKRoutingResolved(b *testing.B) {
	nw, steps := resolvedRoutingInputs(b)
	sp, rev := newSPState(nw), reversedArcs(nw)
	for _, st := range steps { // grow the heap to its working size
		sp.astar(st.src, st.dst, st.length, st.pot, rev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &steps[i%len(steps)]
		if d, how := sp.astar(st.src, st.dst, st.length, st.pot, rev); math.IsInf(d, 1) || how == refused {
			b.Fatal("antipodes unreachable, or the step refused")
		}
	}
}

// TestGKRoutingResolvedAllocs is BenchmarkGKRoutingResolved's 0 allocs/op
// gate, after one pass over every step, and checks that
// the benchmark's steps resolve ties both ways.
func TestGKRoutingResolvedAllocs(t *testing.T) {
	nw, steps := resolvedRoutingInputs(t)
	sp, rev := newSPState(nw), reversedArcs(nw)
	var seen [byPrefix + 1]int
	for _, st := range steps {
		_, how := sp.astar(st.src, st.dst, st.length, st.pot, rev)
		seen[how]++
	}
	if seen[refused] != 0 || seen[byLabel] == 0 || seen[byPrefix] == 0 {
		t.Fatalf("[refused untied byLabel byPrefix] = %v over %d steps: want no refusal and both resolutions", seen, len(steps))
	}
	i := 0
	if n := testing.AllocsPerRun(len(steps), func() {
		st := &steps[i%len(steps)]
		sp.astar(st.src, st.dst, st.length, st.pot, rev)
		i++
	}); n != 0 {
		t.Fatalf("resolving routing step allocates %v times per call, want 0", n)
	}
	t.Logf("[refused untied byLabel byPrefix] = %v", seen)
}

// reversedArcs is nw's arc reversal (reverseArcs).
func reversedArcs(nw *Network) []int32 {
	rev := make([]int32, len(nw.Arcs))
	reverseArcs(nw, rev)
	return rev
}

// resolvedStep is one routing step: a pair, a length function, and the
// target's potentials under it.
type resolvedStep struct {
	src, dst    int
	length, pot []float64
}

// resolvedRoutingInputs is every switch of Q_6 paired with its antipode,
// under the length functions of every phase boundary of an all-to-all solve
// on Q_6: one step per pair and boundary, boundary by boundary.
func resolvedRoutingInputs(tb testing.TB) (*Network, []resolvedStep) {
	lh := topology.NewLonghop(6, 6, 4)
	nw := NewNetwork(lh.G, 1.0)
	var lengths [][]float64
	gkDebugBoundary = func(_ float64, length []float64) {
		lengths = append(lengths, append([]float64(nil), length...))
	}
	MaxConcurrentFlow(nw, Commodities(tm.AllToAll(lh.ToRs(), func(r int) int { return lh.Servers[r] })),
		GKOptions{Epsilon: 0.08, Workers: 1})
	gkDebugBoundary = nil
	if len(lengths) < 8 {
		tb.Fatalf("solve ended after %d phases; need 8 length vectors", len(lengths))
	}
	pots := make([][][]float64, nw.N) // pots[dst][boundary]
	for dst := range pots {
		pots[dst] = routingPotentials(nw, dst, lengths)
	}
	var steps []resolvedStep
	for i, l := range lengths {
		for src := range nw.N {
			dst := src ^ (nw.N - 1)
			steps = append(steps, resolvedStep{src, dst, l, pots[dst][i]})
		}
	}
	return nw, steps
}
