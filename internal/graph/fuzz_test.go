package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

// FuzzKShortestPaths checks Yen's algorithm on random connected graphs:
// every returned path is a loopless src→dst walk over existing edges, the
// paths are distinct and in (hops, lexicographic) order, the first is a
// shortest path, and on graphs of at most 9 nodes the list is exactly the
// first k of every simple path in that order. The query must only read the
// graph: its frozen view is the same pointer before and after.
func FuzzKShortestPaths(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(4), uint8(4))
	f.Add(int64(2), uint8(12), uint8(20), uint8(8))
	f.Add(int64(3), uint8(3), uint8(0), uint8(1))
	f.Add(int64(99), uint8(16), uint8(40), uint8(6))
	f.Add(int64(7), uint8(7), uint8(30), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw, kRaw uint8) {
		n := 2 + int(nRaw%18)       // 2..19 nodes
		extra := int(extraRaw % 48) // extra random edges beyond the tree
		k := 1 + int(kRaw%8)        // 1..8 paths
		checkKShortestPaths(t, randomConnected(n, extra, rand.New(rand.NewSource(seed))), k)
	})
}

// TestKShortestPathsMatchesBruteForce runs the fuzz target's checks, oracle
// included, on 300 random graphs of 3 to 9 nodes.
func TestKShortestPathsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		n := 3 + rng.Intn(7)
		g := randomConnected(n, rng.Intn(3*n), rng)
		checkKShortestPaths(t, g, 1+rng.Intn(12))
	}
}

// TestKShortestPathsConcurrentReaders queries one graph, never frozen before,
// from several goroutines at once; run under -race it fails if a query
// writes the graph.
func TestKShortestPathsConcurrentReaders(t *testing.T) {
	want := randomRegular(54, 10, rand.New(rand.NewSource(6))).KShortestPaths(0, 53, 8)
	g := randomRegular(54, 10, rand.New(rand.NewSource(6)))
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got := g.KShortestPaths(0, 53, 8); !reflect.DeepEqual(got, want) {
					errs[w] = fmt.Errorf("reader %d: %v, want %v", w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// randomConnected returns a random spanning tree on n nodes plus up to extra
// random simple edges.
func randomConnected(n, extra int, rng *rand.Rand) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

// checkKShortestPaths queries g from node 0 to node N−1 for k paths.
func checkKShortestPaths(t *testing.T, g *Graph, k int) {
	t.Helper()
	n := g.N()
	src, dst := 0, n-1
	frozen := g.Frozen()
	distBefore := ViewBFS(frozen, src)

	paths := g.KShortestPaths(src, dst, k)

	if g.Frozen() != frozen {
		t.Fatalf("KShortestPaths replaced the frozen view: it wrote the graph")
	}
	if len(paths) == 0 {
		t.Fatalf("connected graph but no path %d->%d", src, dst)
	}
	if len(paths) > k {
		t.Fatalf("asked for %d paths, got %d", k, len(paths))
	}
	for pi, p := range paths {
		if p[0] != src || p[len(p)-1] != dst {
			t.Fatalf("path %d endpoints %d..%d, want %d..%d", pi, p[0], p[len(p)-1], src, dst)
		}
		visited := map[int]bool{}
		for i, v := range p {
			if v < 0 || v >= n {
				t.Fatalf("path %d: node %d out of range", pi, v)
			}
			if visited[v] {
				t.Fatalf("path %d is not loopless: %v", pi, p)
			}
			visited[v] = true
			if i > 0 && !g.HasEdge(p[i-1], v) {
				t.Fatalf("path %d uses non-edge %d-%d", pi, p[i-1], v)
			}
		}
		if pi == 0 {
			continue
		}
		if q := paths[pi-1]; len(p) < len(q) || len(p) == len(q) && slices.Compare(q, p) >= 0 {
			t.Fatalf("path %d %v does not follow %v in (hops, lexicographic) order", pi, p, q)
		}
	}
	if len(paths[0])-1 != distBefore[dst] {
		t.Fatalf("first path has %d hops, BFS distance is %d", len(paths[0])-1, distBefore[dst])
	}
	if n <= 9 {
		want := simplePaths(g, src, dst)
		if len(want) > k {
			want = want[:k]
		}
		if !reflect.DeepEqual(paths, want) {
			t.Fatalf("k=%d on %v:\ngot  %v\nwant %v", k, g.Edges(), paths, want)
		}
	}
}

// simplePaths lists every simple src→dst path of g in (hops, lexicographic)
// order, by depth-first search over HasEdge.
func simplePaths(g *Graph, src, dst int) [][]int {
	var out [][]int
	onPath := make([]bool, g.N())
	var walk func(path []int)
	walk = func(path []int) {
		u := path[len(path)-1]
		if u == dst {
			out = append(out, append([]int(nil), path...))
			return
		}
		onPath[u] = true
		for v := 0; v < g.N(); v++ {
			if !onPath[v] && g.HasEdge(u, v) {
				walk(append(path, v))
			}
		}
		onPath[u] = false
	}
	walk([]int{src})
	// Depth-first search in ascending neighbor order emits lexicographic
	// order; a stable sort by length keeps it within each hop count.
	sort.SliceStable(out, func(a, b int) bool { return len(out[a]) < len(out[b]) })
	return out
}
