package graph

import (
	"math"

	"beyondft/internal/minheap"
)

// BFS returns the unweighted hop distances from src to every node.
// Unreachable nodes get distance -1.
func (g *Graph) BFS(src int) []int {
	return g.Frozen().BFS(src)
}

// APSP returns all-pairs unweighted hop distances via BFS from every source,
// fanned across the parallel worker pool (see SetParallelism).
// dist[u][v] == -1 for unreachable pairs.
func (g *Graph) APSP() [][]int {
	return g.Frozen().APSP()
}

// PathStats returns the diameter and mean shortest-path length in a single
// parallel APSP sweep (callers that want both should prefer this over
// Diameter + AvgShortestPath, which each sweep once).
func (g *Graph) PathStats() PathStats {
	return g.Frozen().PathStats()
}

// Diameter returns the maximum finite shortest-path distance, or -1 if the
// graph is disconnected or has fewer than two nodes.
func (g *Graph) Diameter() int {
	return g.Frozen().PathStats().Diameter
}

// AvgShortestPath returns the mean shortest-path hop count over all ordered
// node pairs, or NaN if disconnected or fewer than two nodes.
func (g *Graph) AvgShortestPath() float64 {
	return g.Frozen().PathStats().Mean
}

// ShortestPathDAGNextHops returns, for a destination dst, the set of
// next-hops at every node that lie on some shortest path toward dst.
// next[u] is nil for u==dst and for unreachable nodes. Next-hops are in
// ascending order.
func (g *Graph) ShortestPathDAGNextHops(dst int) [][]int {
	c := g.Frozen()
	dist := make([]int32, c.n)
	queue := make([]int32, c.n)
	c.bfsInto(dst, dist, queue)
	next := make([][]int, c.n)
	for u := 0; u < c.n; u++ {
		if u == dst || dist[u] < 0 {
			continue
		}
		want := dist[u] - 1
		for _, v := range c.neighbor[c.rowStart[u]:c.rowStart[u+1]] {
			if dist[v] == want {
				next[u] = append(next[u], int(v))
			}
		}
	}
	return next
}

// Dijkstra computes weighted shortest-path distances from src using the
// per-distinct-edge weights w (w(u,v) must be >= 0; multiplicity does not
// change the weight — parallel cables share a length). It returns distances
// and a parent array for path reconstruction (parent[src] == -1; parent of
// unreachable nodes is -1 and their distance is +Inf). It reads the live
// adjacency maps (not the frozen view) so mutation-heavy callers like Yen's
// algorithm do not pay a CSR rebuild per call.
func (g *Graph) Dijkstra(src int, w func(u, v int) float64) ([]float64, []int) {
	dist := make([]float64, g.n)
	parent := make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	h := minheap.New(g.n)
	h.Push(minheap.Item{Node: int32(src), Pri: 0})
	for h.Len() > 0 {
		it := h.Pop()
		u := int(it.Node)
		if done[u] {
			continue
		}
		done[u] = true
		for v := range g.adj[u] {
			if done[v] {
				continue
			}
			nd := dist[u] + w(u, v)
			if nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				h.Push(minheap.Item{Node: int32(v), Pri: nd})
			}
		}
	}
	return dist, parent
}

// PathTo reconstructs the path from the src used to build parent up to dst.
// Returns nil if dst is unreachable.
func PathTo(parent []int, src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	if parent[dst] == -1 {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = parent[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
