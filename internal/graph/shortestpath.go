package graph

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
