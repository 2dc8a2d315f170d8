package graph

import (
	"math"
	"math/rand"
)

// SecondEigenvalue estimates the second-largest eigenvalue (by absolute
// value among components orthogonal to the trivial eigenvectors) of the
// adjacency matrix of a connected d-regular graph, using power iteration
// with deflation of the all-ones eigenvector — and, for bipartite graphs,
// of the signed bipartition eigenvector (eigenvalue −d), so that bipartite
// Ramanujan graphs such as LPS over PGL report their true non-trivial λ.
// For a d-regular graph the largest eigenvalue is exactly d; the returned
// λ₂ governs expansion: a graph is near-Ramanujan when λ₂ ≲ 2·sqrt(d−1).
//
// iters controls the number of power iterations (200 is plenty for the
// sizes used here). The estimate is of |λ₂|.
func (g *Graph) SecondEigenvalue(iters int, rng *rand.Rand) float64 {
	n := g.n
	if n < 2 {
		return 0
	}
	if iters <= 0 {
		iters = 200
	}
	// Start from a random vector, deflate the all-ones direction.
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, n)
	sides, bipartite := g.Bipartition()
	deflate := func(v []float64) {
		mean := 0.0
		for _, vi := range v {
			mean += vi
		}
		mean /= float64(n)
		for i := range v {
			v[i] -= mean
		}
		if bipartite {
			// Project out the signed bipartition vector s (unit-normalized:
			// s_i = ±1/sqrt(n)).
			dot := 0.0
			for i := range v {
				dot += v[i] * sides[i]
			}
			dot /= float64(n)
			for i := range v {
				v[i] -= dot * sides[i]
			}
		}
	}
	norm := func(v []float64) float64 {
		s := 0.0
		for _, vi := range v {
			s += vi * vi
		}
		return math.Sqrt(s)
	}
	deflate(x)
	if nx := norm(x); nx > 0 {
		for i := range x {
			x[i] /= nx
		}
	}
	c := g.Frozen()
	lambda := 0.0
	for it := 0; it < iters; it++ {
		// y = Ax. Each y[v] sums its row in ascending u: the estimate's
		// bits depend on that order.
		for v := range y {
			nb, mults := c.Row(v)
			s := 0.0
			for k, u := range nb {
				s += float64(mults[k]) * x[u]
			}
			y[v] = s
		}
		deflate(y)
		ny := norm(y)
		if ny == 0 {
			return 0
		}
		lambda = ny // since |x| == 1, |Ax| approaches |λ₂|
		for i := range x {
			x[i] = y[i] / ny
		}
	}
	return lambda
}

// SpectralGap returns d − λ₂ for a d-regular graph (0 if irregular).
func (g *Graph) SpectralGap(iters int, rng *rand.Rand) float64 {
	d, ok := g.IsRegular()
	if !ok {
		return 0
	}
	return float64(d) - g.SecondEigenvalue(iters, rng)
}

// Bipartition 2-colors the graph via BFS. It returns a ±1 side vector and
// whether the graph is bipartite (sides is nil when it is not, or when the
// graph is disconnected with an odd component reachable first).
func (g *Graph) Bipartition() ([]float64, bool) {
	c := g.Frozen()
	n := g.n
	side := make([]float64, n)
	color := make([]int8, n) // 0 unknown, 1, -1
	queue := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if color[start] != 0 {
			continue
		}
		color[start] = 1
		queue = append(queue[:0], start)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			nb, _ := c.Row(u)
			for _, v := range nb {
				if color[v] == 0 {
					color[v] = -color[u]
					queue = append(queue, int(v))
				} else if color[v] == color[u] {
					return nil, false
				}
			}
		}
	}
	for i := range side {
		side[i] = float64(color[i])
	}
	return side, true
}
