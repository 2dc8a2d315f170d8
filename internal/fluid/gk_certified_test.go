package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"beyondft/internal/topology"
)

// certifiedTestNetwork is one of three shapes: FuzzGKDijkstraKernel's random
// multigraphs, or one of two tie-heavy fabrics, the hypercube Q_4 and the
// k=4 fat-tree, whose equal-hop paths tie under equal lengths.
func certifiedTestNetwork(shape uint8, rng *rand.Rand) *Network {
	switch shape % 3 {
	case 1:
		return NewNetwork(topology.NewLonghop(4, 4, 1).G, 1.0)
	case 2:
		return NewNetwork(topology.NewFatTree(4).G, 1.0)
	}
	return kernelTestNetwork(rng)
}

// certifiedTestLengths draws a length function in kernelTestLengths' three
// regimes plus a fourth, tiny lengths beside large ones: δ ≈ 1e-34 next to
// 1e-3, where an arc vanishes in a sum and distinct paths fold to one label,
// and a few units in the last place of 1e-3, where labels a few ulps apart
// get keys that round to one value. It returns it with an earlier one,
// elementwise no longer, as GK's lengths were at an earlier phase boundary:
// some arcs shrunk back by up to two factors of 1+ε, or none.
func certifiedTestLengths(m int, mode uint8, rng *rand.Rand) (length, earlier []float64) {
	if mode%4 == 3 {
		length = make([]float64, m)
		for i := range length {
			switch rng.Intn(3) {
			case 0:
				length[i] = 1e-3
			case 1:
				length[i] = 1e-34 * (1 + float64(rng.Intn(3)))
			default:
				length[i] = 0x1p-62 * (1 + float64(rng.Intn(4)))
			}
		}
	} else {
		length = kernelTestLengths(m, mode, rng)
	}
	earlier = append([]float64(nil), length...)
	if mode&4 != 0 {
		for i := range earlier {
			earlier[i] /= math.Pow(1.08, float64(rng.Intn(3)))
		}
	}
	return length, earlier
}

// checkCertifiedRouting is the law of the goal-directed search: under
// potentials taken from any earlier length function, it returns dijkstra's
// dist[target] bit for bit, and whenever it accepts its chain — untied, or
// with its ties resolved by tail labels or by a prefix of dijkstra — the
// whole parent chain from target to source is dijkstra's as well, arc for
// arc. It reports how the search left the chain.
func checkCertifiedRouting(t *testing.T, seed int64, mode, shape uint8) route {
	rng := rand.New(rand.NewSource(seed))
	nw := certifiedTestNetwork(shape, rng)
	length, earlier := certifiedTestLengths(len(nw.Arcs), mode, rng)
	src, dst := rng.Intn(nw.N), rng.Intn(nw.N)
	pot := routingPotentials(nw, dst, [][]float64{earlier})[0]
	return checkRoutingStep(t, fmt.Sprintf("seed %d mode %d shape %d", seed, mode, shape), nw, src, dst, length, pot)
}

// checkRoutingStep checks one goal-directed routing step from src to dst
// under length, on the row pot, against dijkstra: the same dist[dst] bit for
// bit and, unless the search refused, the same parent chain arc for arc.
func checkRoutingStep(t *testing.T, draw string, nw *Network, src, dst int, length, pot []float64) route {
	t.Helper()
	want := newSPState(nw)
	full := want.dijkstra(src, length, make([]float64, nw.N), -1)
	want.dijkstra(src, length, nil, dst)
	got := newSPState(nw)
	d, how := got.astar(src, dst, length, pot, reversedArcs(nw))
	if math.Float64bits(d) != math.Float64bits(full[dst]) || math.Float64bits(d) != math.Float64bits(want.dist[dst]) {
		t.Fatalf("%s: goal-directed dist[%d] = %v, dijkstra %v", draw, dst, d, full[dst])
	}
	if how == refused {
		return how
	}
	for v := dst; v != src; v = int(nw.arcFrom[want.parent[v]]) {
		if got.parent[v] != want.parent[v] {
			t.Fatalf("%s: accepted (route %d) parent[%d] = %d, dijkstra %d", draw, how, v, got.parent[v], want.parent[v])
		}
	}
	return how
}

// TestGKCertifiedRoutingMatchesDijkstra runs the fuzz body over a seeded
// sweep of every shape and length regime, and checks that the law is not
// vacuous: on each shape the search certifies untied chains, resolves ties
// by tail labels alone, and resolves them by a prefix of dijkstra.
func TestGKCertifiedRoutingMatchesDijkstra(t *testing.T) {
	var seen [3][byPrefix + 1]int
	for seed := int64(0); seed < 1200; seed++ {
		shape := uint8(seed % 3)
		seen[shape][checkCertifiedRouting(t, seed, uint8(seed/3), shape)]++
	}
	for _, s := range drainSeeds {
		checkCertifiedRouting(t, s.seed, s.mode, s.shape)
	}
	for shape, n := range seen {
		if n[untied] == 0 || n[byLabel] == 0 || n[byPrefix] == 0 {
			t.Errorf("shape %d: %d untied, %d by label, %d by prefix, %d refused; want each way of accepting",
				shape, n[untied], n[byLabel], n[byPrefix], n[refused])
		}
	}
	t.Logf("[refused untied byLabel byPrefix] per shape (random, hypercube, fat-tree): %v", seen)
}

// drainSeeds are draws — ulp-scale lengths on the hypercube and the
// fat-tree — on which a tying in-arc of the chain is only relaxed after the
// target's first expansion: a search that stopped there instead of draining
// certifies another path than dijkstra's on each.
var drainSeeds = []struct {
	seed        int64
	mode, shape uint8
}{{-265, 7, 1}, {-108, 7, 2}}

// FuzzGKCertifiedRouting is the native fuzz entry point for the same law.
func FuzzGKCertifiedRouting(f *testing.F) {
	for mode := uint8(0); mode < 8; mode++ {
		for shape := uint8(0); shape < 3; shape++ {
			f.Add(int64(mode)*7+int64(shape), mode, shape)
		}
	}
	for _, s := range drainSeeds {
		f.Add(s.seed, s.mode, s.shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, mode, shape uint8) {
		checkCertifiedRouting(t, seed, mode, shape)
	})
}

// checkRowRepair is the admissibility law of a repaired row. It draws
// length functions L0 ≤ L1 ≤ L2 elementwise (FuzzGKCertifiedRouting's draws,
// with L0 shrunk from L1 as L1 is from L2), builds dst's row under L0,
// seeds its order and repairs it under L1. The repaired row must lie
// between its input and the row potentials builds under L1, elementwise;
// the order must list every node once, in ascending order of the row; and a
// routing step under L2 on the row must be dijkstra's (checkRoutingStep).
// It reports how many entries the repair raised.
func checkRowRepair(t *testing.T, seed int64, mode, shape uint8) (raised int) {
	rng := rand.New(rand.NewSource(seed))
	nw := certifiedTestNetwork(shape, rng)
	l2, l1 := certifiedTestLengths(len(nw.Arcs), mode, rng)
	l0 := append([]float64(nil), l1...)
	if mode&8 != 0 {
		for i := range l0 {
			l0[i] /= math.Pow(1.08, float64(rng.Intn(3)))
		}
	}
	src, dst := rng.Intn(nw.N), rng.Intn(nw.N)
	rows := routingPotentials(nw, dst, [][]float64{l0, l1})
	in, bound := rows[0], rows[1]
	row, order := append([]float64(nil), in...), make([]uint16, nw.N)
	seedOrder(row, order)
	nw.repair(dst, l1, row, order)

	draw := fmt.Sprintf("seed %d mode %d shape %d", seed, mode, shape)
	for v := range row {
		if !(in[v] <= row[v] && row[v] <= bound[v]) {
			t.Fatalf("%s: repaired row[%d] = %v, want within [%v, %v] (input, rebuilt)", draw, v, row[v], in[v], bound[v])
		}
		if row[v] > in[v] {
			raised++
		}
	}
	seen := make([]bool, nw.N)
	for i, v := range order {
		if seen[v] {
			t.Fatalf("%s: node %d twice in the order", draw, v)
		}
		seen[v] = true
		if i > 0 && row[order[i-1]] > row[v] {
			t.Fatalf("%s: order[%d] = %d (%v) after order[%d] = %d (%v)", draw, i, v, row[v], i-1, order[i-1], row[order[i-1]])
		}
	}
	checkRoutingStep(t, draw, nw, src, dst, l2, row)
	return raised
}

// TestGKRowRepair runs the repair law over a seeded sweep of every shape
// and length regime, and checks that it is not vacuous: on each shape some
// repair raises entries.
func TestGKRowRepair(t *testing.T) {
	var raised [3]int
	for seed := int64(0); seed < 1200; seed++ {
		shape := uint8(seed % 3)
		raised[shape] += checkRowRepair(t, seed, uint8(seed/3), shape)
	}
	for shape, n := range raised {
		if n == 0 {
			t.Errorf("shape %d: no repair raised an entry", shape)
		}
	}
	t.Logf("entries raised per shape (random, hypercube, fat-tree): %v", raised)
}

// FuzzGKRowRepair is the native fuzz entry point for the same law.
func FuzzGKRowRepair(f *testing.F) {
	for mode := uint8(0); mode < 16; mode++ {
		for shape := uint8(0); shape < 3; shape++ {
			f.Add(int64(mode)*7+int64(shape), mode, shape)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, mode, shape uint8) {
		checkRowRepair(t, seed, mode, shape)
	})
}

// TestGKConcurrentSolvesShareTables runs solves from several goroutines at
// once — some on Workspaces of their own, some without — so the potential
// tables pass between solves through goalPool and through the buffers that
// remember them, and each result must equal the same solve run alone.
func TestGKConcurrentSolvesShareTables(t *testing.T) {
	type job struct {
		nw    *Network
		comms []Commodity
		want  GKResult
	}
	var jobs []job
	for seed := int64(0); seed < 6; seed++ {
		nw, comms := gkTestInstance(seed)
		if len(comms) > 0 {
			jobs = append(jobs, job{nw, comms, MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.1, Workers: 1})})
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws *Workspace
			if g%2 == 0 {
				ws = new(Workspace)
			}
			for round := range 3 {
				for i, j := range jobs {
					got := MaxConcurrentFlow(j.nw, j.comms, GKOptions{Epsilon: 0.1, Workers: 1 + (g+round)%2, Workspace: ws})
					if got.Throughput != j.want.Throughput || got.UpperBound != j.want.UpperBound || got.Fallbacks != j.want.Fallbacks {
						t.Errorf("goroutine %d, job %d: %+v, alone %+v", g, i, got, j.want)
					}
				}
			}
		}()
	}
	wg.Wait()
}
