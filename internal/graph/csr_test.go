package graph

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// randomMultigraph builds a random multigraph: n nodes, roughly density·n²
// distinct edges, multiplicities in [1,3].
func randomMultigraph(n int, density float64, rng *rand.Rand) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				g.AddEdgeMulti(u, v, 1+rng.Intn(3))
			}
		}
	}
	return g
}

// mapBFS is a reference BFS over the live adjacency maps (the pre-CSR
// implementation), used to cross-check the flat-array kernels.
func mapBFS(g *Graph, src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// bfsRows is BFSManyInto on a fresh buffer.
func bfsRows(c *CSR, sources ...int) [][]int {
	var buf BFSBuffer
	return c.BFSManyInto(&buf, sources)
}

// apsp is the all-pairs BFS: one row per node.
func apsp(c *CSR) [][]int {
	all := make([]int, c.N())
	for i := range all {
		all[i] = i
	}
	return bfsRows(c, all...)
}

// TestCSRMatchesMapRandom is the CSR-vs-map property test: on random
// multigraphs (including after mutations), the frozen view must agree with
// the adjacency maps on edges, rows, and BFS distances.
func TestCSRMatchesMapRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		g := randomMultigraph(n, 0.15+0.5*rng.Float64(), rng)

		check := func(stage string) {
			c := g.Frozen()
			// Rows match Neighbors and the adjacency multiplicities.
			total := 0
			for u := 0; u < n; u++ {
				nbr, mult := c.Row(u)
				want := g.Neighbors(u)
				if len(nbr) != len(want) {
					t.Fatalf("trial %d %s: node %d row len %d, want %d", trial, stage, u, len(nbr), len(want))
				}
				for k := range nbr {
					if int(nbr[k]) != want[k] {
						t.Fatalf("trial %d %s: node %d neighbor[%d] = %d, want %d", trial, stage, u, k, nbr[k], want[k])
					}
					if int(mult[k]) != g.adj[u][want[k]] {
						t.Fatalf("trial %d %s: node %d mult[%d] = %d, want %d", trial, stage, u, k, mult[k], g.adj[u][want[k]])
					}
					total += int(mult[k])
				}
			}
			if total != 2*g.M() {
				t.Fatalf("trial %d %s: CSR multiplicity total %d, want 2*M = %d", trial, stage, total, 2*g.M())
			}
			// Edges read off the CSR match a direct map walk.
			var wantEdges []Edge
			for u := 0; u < n; u++ {
				for _, v := range g.Neighbors(u) {
					if v > u {
						wantEdges = append(wantEdges, Edge{U: u, V: v, Mult: g.adj[u][v]})
					}
				}
			}
			gotEdges := g.Edges()
			if len(gotEdges) == 0 {
				gotEdges = nil
			}
			if !reflect.DeepEqual(gotEdges, wantEdges) {
				t.Fatalf("trial %d %s: Edges mismatch\n got %v\nwant %v", trial, stage, gotEdges, wantEdges)
			}
			// BFS over flat arrays matches BFS over the maps.
			for src := 0; src < n; src++ {
				if got, want := bfsRows(g.Frozen(), src)[0], mapBFS(g, src); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s: BFS(%d) = %v, want %v", trial, stage, src, got, want)
				}
			}
		}

		check("initial")
		// Mutate: the frozen view must be invalidated and rebuilt correctly.
		for i := 0; i < 5; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				g.AddEdge(u, v)
			} else {
				g.RemoveEdge(u, v)
			}
		}
		check("after mutation")
	}
}

func TestFrozenCachedUntilMutation(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	c1 := g.Frozen()
	if c2 := g.Frozen(); c1 != c2 {
		t.Fatal("Frozen rebuilt without mutation")
	}
	g.AddEdge(2, 3)
	c3 := g.Frozen()
	if c3 == c1 {
		t.Fatal("Frozen not invalidated by AddEdge")
	}
	if d := bfsRows(c3, 0)[0][3]; d != 3 {
		t.Fatalf("post-mutation view: dist(0,3) = %d, want 3", d)
	}
	g.RemoveEdge(2, 3)
	if c4 := g.Frozen(); c4 == c3 {
		t.Fatal("Frozen not invalidated by RemoveEdge")
	}
}

// TestParallelKernelsDeterministic asserts identical all-pairs BFS,
// BFSManyInto and PathStats results at worker counts 1, 2, and NumCPU.
func TestParallelKernelsDeterministic(t *testing.T) {
	defer SetParallelism(0)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		n := 30 + rng.Intn(100)
		g := randomMultigraph(n, 0.1, rng)
		sources := []int{0, n / 3, n / 2, n - 1}

		var wantAPSP [][]int
		var wantMany [][]int
		var wantStats PathStats
		for _, w := range []int{1, 2, runtime.NumCPU()} {
			SetParallelism(w)
			all := apsp(g.Frozen())
			many := bfsRows(g.Frozen(), sources...)
			stats := g.PathStats()
			if wantAPSP == nil {
				wantAPSP, wantMany, wantStats = all, many, stats
				continue
			}
			if !reflect.DeepEqual(all, wantAPSP) {
				t.Fatalf("trial %d: APSP differs at %d workers", trial, w)
			}
			if !reflect.DeepEqual(many, wantMany) {
				t.Fatalf("trial %d: BFSManyInto differs at %d workers", trial, w)
			}
			// Mean is an exact integer-sum quotient, so compare bitwise (NaN
			// for disconnected trials compares via bit pattern).
			if stats.Diameter != wantStats.Diameter || stats.Connected != wantStats.Connected ||
				math.Float64bits(stats.Mean) != math.Float64bits(wantStats.Mean) {
				t.Fatalf("trial %d: PathStats differs at %d workers: %+v vs %+v", trial, w, stats, wantStats)
			}
		}
	}
}

// TestPathStatsMatchesSerialSweep checks the one-sweep PathStats against
// the diameter and mean computed independently from map-BFS rows.
func TestPathStatsMatchesSerialSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		g := randomMultigraph(n, 0.05+0.3*rng.Float64(), rng)
		wantDiam, wantTotal, pairs := 0, 0, 0
		connected := true
		for u := 0; u < n && connected; u++ {
			for v, dv := range mapBFS(g, u) {
				if v == u {
					continue
				}
				if dv < 0 {
					connected = false
					break
				}
				wantTotal += dv
				pairs++
				if dv > wantDiam {
					wantDiam = dv
				}
			}
		}
		ps := g.PathStats()
		if !connected {
			if ps.Connected || ps.Diameter != -1 || !math.IsNaN(ps.Mean) {
				t.Fatalf("trial %d: disconnected graph got %+v", trial, ps)
			}
			continue
		}
		if !ps.Connected || ps.Diameter != wantDiam {
			t.Fatalf("trial %d: PathStats = %+v, want diameter %d", trial, ps, wantDiam)
		}
		wantMean := float64(wantTotal) / float64(pairs)
		if math.Abs(ps.Mean-wantMean) > 1e-12 {
			t.Fatalf("trial %d: mean = %v, want %v", trial, ps.Mean, wantMean)
		}
	}
}

func TestCSRConnectedMatchesGraph(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
	if !New(1).Connected() || !New(0).Connected() {
		t.Fatal("trivial graphs must be connected")
	}
}
