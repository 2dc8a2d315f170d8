package graph

import (
	"math"
	"slices"
)

// KShortestPaths returns up to k loopless paths from src to dst: the first k
// of all of them in (hop count, lexicographic) order, by Yen's algorithm on
// the frozen view. Each path is a node sequence starting at src and ending at
// dst. It only reads g, so any number of goroutines may query one graph.
func (g *Graph) KShortestPaths(src, dst, k int) [][]int {
	if k <= 0 {
		return nil
	}
	if src == dst {
		return [][]int{{src}}
	}
	c := g.Frozen()
	y := &yen{c: c, dist: make([]int32, c.n), queue: make([]int32, c.n), cut: make([]bool, c.n)}
	first := y.spurPath([]int{src}, dst)
	if first == nil {
		return nil
	}
	paths := [][]int{first}
	var candidates [][]int
	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev)-1; i++ {
			root := prev[:i+1]
			// Cut the spur's arcs that would recreate a path already found
			// with this root.
			for _, p := range paths {
				if len(p) > i+1 && slices.Equal(p[:i+1], root) {
					y.cut[p[i+1]] = true
				}
			}
			p := y.spurPath(root, dst)
			clear(y.cut)
			if p != nil && !slices.ContainsFunc(candidates, func(q []int) bool { return slices.Equal(p, q) }) {
				candidates = append(candidates, p)
			}
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		for j, p := range candidates {
			if len(p) < len(candidates[best]) || len(p) == len(candidates[best]) && slices.Compare(p, candidates[best]) < 0 {
				best = j
			}
		}
		paths = append(paths, candidates[best])
		candidates = slices.Delete(candidates, best, best+1)
	}
	return paths
}

// yen is one KShortestPaths query's scratch: hop distances to the
// destination, the BFS queue, and the spur's cut arcs by head node.
type yen struct {
	c           *CSR
	dist, queue []int32
	cut         []bool
}

// banned marks a node the BFS must not enter; no descent step matches it.
const banned = math.MaxInt32

// spurPath returns root followed by the lexicographically smallest shortest
// path from root's last node (the spur) to dst that avoids root's other nodes
// and the spur's cut arcs, or nil if there is none. A BFS from dst over the
// graph without root's nodes gives the hop distances; the spur steps to its
// nearest uncut neighbor, and every later node to its first neighbor one hop
// nearer.
func (y *yen) spurPath(root []int, dst int) []int {
	for i := range y.dist {
		y.dist[i] = -1
	}
	for _, v := range root {
		y.dist[v] = banned
	}
	y.c.bfsFrom(dst, y.dist, y.queue)
	next, hops := -1, int32(banned)
	nb, _ := y.c.Row(root[len(root)-1])
	for _, v := range nb {
		if d := y.dist[v]; d >= 0 && d < hops && !y.cut[v] {
			next, hops = int(v), d
		}
	}
	if next < 0 {
		return nil
	}
	path := make([]int, len(root), len(root)+1+int(hops))
	copy(path, root)
	for u := next; ; {
		path = append(path, u)
		if u == dst {
			return path
		}
		nb, _ := y.c.Row(u)
		for _, v := range nb {
			if y.dist[v] == y.dist[u]-1 {
				u = int(v)
				break
			}
		}
	}
}
