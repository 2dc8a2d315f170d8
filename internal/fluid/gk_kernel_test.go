package fluid

import (
	"math"
	"math/rand"
	"testing"

	"beyondft/internal/graph"
	"beyondft/internal/minheap"
)

// legacySP is the routing/dual-bound Dijkstra exactly as it stood before
// PR 13 (settled set, per-arc done test, bounds-checked flat indexing), kept
// verbatim as the oracle for spState.dijkstra. Do not optimise it.
type legacySP struct {
	nw   *Network
	dist []float64
	done []bool
	heap minheap.Heap
}

func newLegacySP(nw *Network) *legacySP {
	return &legacySP{
		nw:   nw,
		dist: make([]float64, nw.N),
		done: make([]bool, nw.N),
		heap: minheap.New(nw.N),
	}
}

func (s *legacySP) dijkstra(src int, length []float64, parent []int32, dist []float64, target int) []float64 {
	nw := s.nw
	if dist == nil {
		dist = s.dist
	}
	for i := range dist {
		dist[i] = math.Inf(1)
		s.done[i] = false
		if parent != nil {
			parent[i] = -1
		}
	}
	dist[src] = 0
	h := &s.heap
	h.Reset()
	h.Push(minheap.Item{Node: int32(src), Pri: 0})
	for h.Len() > 0 {
		it := h.Pop()
		u := int(it.Node)
		if s.done[u] {
			continue
		}
		s.done[u] = true
		if u == target {
			break
		}
		du := dist[u]
		for ai := nw.arcStart[u]; ai < nw.arcStart[u+1]; ai++ {
			to := nw.arcTo[ai]
			if s.done[to] {
				continue
			}
			nd := du + length[ai]
			if nd < dist[to] {
				dist[to] = nd
				if parent != nil {
					parent[to] = int32(ai)
				}
				h.Push(minheap.Item{Node: to, Pri: nd})
			}
		}
	}
	return dist
}

// kernelTestNetwork builds a random multigraph network: a connected core
// (parallel edges become arc capacities > 1) plus up to two isolated nodes,
// the shape a what-if node failure leaves behind.
func kernelTestNetwork(rng *rand.Rand) *Network {
	n := 2 + rng.Intn(40)
	g := graph.New(n + rng.Intn(3))
	for i := 1; i < n; i++ {
		g.AddEdgeMulti(i, rng.Intn(i), 1+rng.Intn(3))
	}
	for e := rng.Intn(4 * n); e > 0; e-- {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.AddEdgeMulti(u, v, 1+rng.Intn(2))
		}
	}
	return NewNetwork(g, 1.0)
}

// kernelTestLengths draws arc lengths in one of the three regimes GK moves
// through: all equal (phase 1 of a cold unit-capacity solve), δ·(1+ε)^k for
// small k (the tie-heavy steady state), and unrelated values.
func kernelTestLengths(m int, mode uint8, rng *rand.Rand) []float64 {
	length := make([]float64, m)
	for i := range length {
		switch mode % 3 {
		case 0:
			length[i] = 1e-7
		case 1:
			length[i] = 1e-7 * math.Pow(1.08, float64(rng.Intn(5)))
		default:
			length[i] = 0.1 + rng.Float64()
		}
	}
	return length
}

// checkKernelAgainstLegacy compares spState.dijkstra with legacySP on one
// (network, lengths, src, dst) draw in both calling modes: the full sweep
// into a caller's dist row, and the early-terminated search that GK routes
// along. Every dist write is paired with a heap push, so identical heap
// traffic means identical arrays, unsettled entries included; the comparison
// is therefore bitwise over all of dist and, for the routed search, all of
// parent (which contains the target's chain).
func checkKernelAgainstLegacy(t *testing.T, seed int64, mode uint8) {
	rng := rand.New(rand.NewSource(seed))
	nw := kernelTestNetwork(rng)
	length := kernelTestLengths(len(nw.Arcs), mode, rng)
	src, dst := rng.Intn(nw.N), rng.Intn(nw.N)
	sp, legacy := newSPState(nw), newLegacySP(nw)
	sameDist := func(what string, got, want []float64) {
		t.Helper()
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("seed %d mode %d: %s dist[%d] = %v, legacy %v", seed, mode, what, v, got[v], want[v])
			}
		}
	}

	sameDist("full sweep",
		sp.dijkstra(src, length, make([]float64, nw.N), -1),
		legacy.dijkstra(src, length, nil, make([]float64, nw.N), -1))

	wantParent := make([]int32, nw.N)
	sameDist("early stop",
		sp.dijkstra(src, length, nil, dst),
		legacy.dijkstra(src, length, wantParent, nil, dst))
	for v, want := range wantParent {
		if sp.parent[v] != want {
			t.Fatalf("seed %d mode %d: parent[%d] = %d, legacy %d (path selection moved)", seed, mode, v, sp.parent[v], want)
		}
	}
}

// TestGKDijkstraKernelMatchesLegacy runs the fuzz body over a seeded sweep
// so plain `go test` (and the race target) covers far more draws than the
// seed corpus.
func TestGKDijkstraKernelMatchesLegacy(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		checkKernelAgainstLegacy(t, seed, uint8(seed))
	}
}

// FuzzGKDijkstraKernel is the native fuzz entry point for the same check.
func FuzzGKDijkstraKernel(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Add(int64(3), uint8(2))
	f.Add(int64(-77), uint8(1))
	for _, s := range heapGrowthSeeds {
		f.Add(s.seed, s.mode)
	}
	f.Fuzz(checkKernelAgainstLegacy)
}

// heapGrowthSeeds are draws — dense multigraphs under tie-heavy and random
// lengths — on which a Dijkstra holds more live heap entries than the nw.N
// slots newSPState gives it, so the kernel-vs-legacy check crosses the
// heap's growth path mid-search.
var heapGrowthSeeds = []struct {
	seed int64
	mode uint8
}{{130, 1}, {5, 2}}

// TestGKDijkstraKernelSeedsGrowHeap keeps heapGrowthSeeds honest: on each,
// both calling modes of a fresh spState allocate beyond what newSPState did,
// and the only thing in dijkstra that can allocate is the heap growing.
func TestGKDijkstraKernelSeedsGrowHeap(t *testing.T) {
	for _, s := range heapGrowthSeeds {
		rng := rand.New(rand.NewSource(s.seed))
		nw := kernelTestNetwork(rng)
		length := kernelTestLengths(len(nw.Arcs), s.mode, rng)
		src, dst := rng.Intn(nw.N), rng.Intn(nw.N)
		dist := make([]float64, nw.N)
		fresh := testing.AllocsPerRun(2, func() { newSPState(nw) })
		full := testing.AllocsPerRun(2, func() { newSPState(nw).dijkstra(src, length, dist, -1) })
		early := testing.AllocsPerRun(2, func() { newSPState(nw).dijkstra(src, length, nil, dst) })
		if full <= fresh || early <= fresh {
			t.Errorf("seed %d mode %d (N=%d, %d arcs): allocations fresh %v, full sweep %v, early stop %v: the heap did not grow",
				s.seed, s.mode, nw.N, len(nw.Arcs), fresh, full, early)
		}
	}
}
