package graph

// PathStats returns the diameter and mean shortest-path length in a single
// parallel all-pairs BFS sweep.
func (g *Graph) PathStats() PathStats {
	return g.Frozen().PathStats()
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
