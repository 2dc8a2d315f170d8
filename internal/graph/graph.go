// Package graph provides the core graph data structure and algorithms used
// by the topology generators and the fluid-flow throughput engine: hop-count
// shortest paths (BFS, all pairs, shortest-path DAGs), Yen's k-shortest
// paths, spectral-gap estimation, matching heuristics, and Moore-bound
// path-length lower bounds.
//
// Graphs here model switch-level network topologies: undirected, simple
// (no self-loops; parallel edges are modelled as integer edge multiplicity,
// which corresponds to trunked links between a switch pair).
package graph

import (
	"fmt"
	"sync"
)

// Graph is an undirected multigraph on nodes 0..N-1. Edge multiplicity m
// between a node pair models m parallel unit-capacity cables. The map rows are
// the write buffer of generators and search moves; every walk of the graph
// reads the CSR view Frozen() builds from them.
type Graph struct {
	n   int
	adj []map[int]int // adj[u][v] = multiplicity
	m   int           // total edge count (counting multiplicity)

	// frozen caches the CSR view built by Frozen(); mutations invalidate it.
	// frozenMu makes concurrent Frozen() calls safe (mutation stays
	// single-writer, as for the maps above).
	frozenMu sync.Mutex
	frozen   *CSR
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	adj := make([]map[int]int, n)
	for i := range adj {
		adj[i] = make(map[int]int)
	}
	return &Graph{n: n, adj: adj}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges, counting multiplicity.
func (g *Graph) M() int { return g.m }

// AddEdge adds one undirected edge between u and v. Parallel edges
// accumulate multiplicity. Self-loops are rejected.
func (g *Graph) AddEdge(u, v int) {
	g.AddEdgeMulti(u, v, 1)
}

// AddEdgeMulti adds an undirected edge with the given multiplicity.
func (g *Graph) AddEdgeMulti(u, v, mult int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if mult <= 0 {
		panic("graph: non-positive multiplicity")
	}
	g.adj[u][v] += mult
	g.adj[v][u] += mult
	g.m += mult
	g.invalidate()
}

func (g *Graph) invalidate() {
	g.frozenMu.Lock()
	g.frozen = nil
	g.frozenMu.Unlock()
}

// RemoveEdge removes one unit of multiplicity from edge (u,v).
// It reports whether an edge existed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if g.adj[u][v] == 0 {
		return false
	}
	g.adj[u][v]--
	g.adj[v][u]--
	if g.adj[u][v] == 0 {
		delete(g.adj[u], v)
		delete(g.adj[v], u)
	}
	g.m--
	g.invalidate()
	return true
}

// HasEdge reports whether at least one edge connects u and v.
func (g *Graph) HasEdge(u, v int) bool { return g.adj[u][v] > 0 }

// Degree returns the degree of u, counting multiplicity.
func (g *Graph) Degree(u int) int {
	d := 0
	for _, mult := range g.adj[u] {
		d += mult
	}
	return d
}

// Neighbors returns the distinct neighbors of u in ascending order.
func (g *Graph) Neighbors(u int) []int {
	nb, _ := g.Frozen().Row(u)
	out := make([]int, len(nb))
	for i, v := range nb {
		out[i] = int(v)
	}
	return out
}

// Edge is an undirected edge with multiplicity.
type Edge struct {
	U, V int // U < V
	Mult int
}

// Edges returns all distinct undirected edges (U < V) in deterministic order
// (ascending U, then V), read off the frozen CSR view without per-node map
// walks and sorts.
func (g *Graph) Edges() []Edge {
	return g.AppendEdges(make([]Edge, 0, len(g.Frozen().neighbor)/2))
}

// AppendEdges appends Edges() to dst, for callers that list the edges of one
// graph after another into the same buffer.
func (g *Graph) AppendEdges(dst []Edge) []Edge {
	c := g.Frozen()
	for u := 0; u < c.n; u++ {
		lo, hi := c.rowStart[u], c.rowStart[u+1]
		for k := lo; k < hi; k++ {
			if v := c.neighbor[k]; int(v) > u {
				dst = append(dst, Edge{U: u, V: int(v), Mult: int(c.mult[k])})
			}
		}
	}
	return dst
}

// CopyFrom makes g a deep copy of src in the rows g already has: a graph that
// is copied into again and again (a search's candidate, rewired and thrown
// away) costs no allocation after the first time. It only reads src (no
// freeze, no lock), so concurrent copies of one graph are safe; g must have
// no other user, and a view it froze earlier is dropped.
func (g *Graph) CopyFrom(src *Graph) {
	if len(g.adj) != src.n {
		g.adj = make([]map[int]int, src.n)
	}
	for u, row := range src.adj {
		c := g.adj[u]
		if c == nil {
			c = make(map[int]int, len(row))
			g.adj[u] = c
		} else {
			clear(c)
		}
		for v, mult := range row {
			c[v] = mult
		}
	}
	g.n, g.m = src.n, src.m
	g.invalidate()
}

// IsRegular reports whether every node has the same degree, and that degree.
func (g *Graph) IsRegular() (int, bool) {
	if g.n == 0 {
		return 0, true
	}
	d := g.Degree(0)
	for u := 1; u < g.n; u++ {
		if g.Degree(u) != d {
			return 0, false
		}
	}
	return d, true
}

// Connected reports whether the graph is connected (vacuously true for n<=1).
func (g *Graph) Connected() bool {
	return g.Frozen().Connected()
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.n, g.m)
}
