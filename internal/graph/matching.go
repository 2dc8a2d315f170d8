package graph

import (
	"cmp"
	"slices"
)

// MaxWeightMatching computes a heavy perfect-or-near-perfect matching on the
// node subset `nodes` with pairwise weights w (symmetric). It is the
// heuristic the longest-matching traffic matrices of Jyothi et al. call for:
// greedy seeding by descending weight followed by 2-opt pair-swap local
// search. Returns pairs (a,b) with a < b; if len(nodes) is odd one node is
// left unmatched.
func MaxWeightMatching(nodes []int, w func(a, b int) float64) [][2]int {
	var s MatchingScratch
	return s.MaxWeightMatching(nodes, w)
}

// MatchingScratch keeps the buffers of a MaxWeightMatching call for the next
// one: a caller that matches instance after instance of about one size
// allocates for the first only.
type MatchingScratch struct {
	cands []matchCand
	mate  []int
	out   [][2]int
}

// matchCand is one candidate pair: 16 bytes with 32-bit indices, and one per
// node pair, the largest allocation of a longest-matching TM.
type matchCand struct {
	a, b int32 // indices into nodes
	w    float64
}

// MaxWeightMatching is the package function on s's buffers; the returned
// pairs are valid until s's next call.
func (s *MatchingScratch) MaxWeightMatching(nodes []int, w func(a, b int) float64) [][2]int {
	n := len(nodes)
	if n < 2 {
		return nil
	}
	if cap(s.cands) < n*(n-1)/2 {
		s.cands = make([]matchCand, 0, n*(n-1)/2)
	}
	cands := s.cands[:0]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cands = append(cands, matchCand{a: int32(i), b: int32(j), w: w(nodes[i], nodes[j])})
		}
	}
	// Heaviest first, ties by (a, b): a strict total order, so the sorted list
	// is the same whatever sorts it.
	slices.SortFunc(cands, func(x, y matchCand) int {
		switch {
		case x.w != y.w:
			return cmp.Compare(y.w, x.w)
		case x.a != y.a:
			return cmp.Compare(x.a, y.a)
		}
		return cmp.Compare(x.b, y.b)
	})
	if cap(s.mate) < n {
		s.mate = make([]int, n)
	}
	mate := s.mate[:n]
	for i := range mate {
		mate[i] = -1
	}
	for _, c := range cands {
		if a, b := int(c.a), int(c.b); mate[a] == -1 && mate[b] == -1 {
			mate[a] = b
			mate[b] = a
		}
	}

	// 2-opt: for matched pairs (a,b) and (c,d), try (a,c)+(b,d) and
	// (a,d)+(b,c); keep the best. Iterate to a local optimum.
	wi := func(i, j int) float64 { return w(nodes[i], nodes[j]) }
	improved := true
	for iter := 0; improved && iter < 50; iter++ {
		improved = false
		for a := 0; a < n; a++ {
			b := mate[a]
			if b < a {
				continue // unmatched or already seen as (b,a)
			}
			for c := a + 1; c < n; c++ {
				d := mate[c]
				if d < c || c == b {
					continue
				}
				cur := wi(a, b) + wi(c, d)
				sw1 := wi(a, c) + wi(b, d)
				sw2 := wi(a, d) + wi(b, c)
				if sw1 > cur && sw1 >= sw2 {
					mate[a], mate[c] = c, a
					mate[b], mate[d] = d, b
					b = mate[a]
					improved = true
				} else if sw2 > cur {
					mate[a], mate[d] = d, a
					mate[b], mate[c] = c, b
					b = mate[a]
					improved = true
				}
			}
		}
	}

	out := s.out[:0]
	for i := 0; i < n; i++ {
		j := mate[i]
		if j > i {
			u, v := nodes[i], nodes[j]
			if u > v {
				u, v = v, u
			}
			out = append(out, [2]int{u, v})
		}
	}
	slices.SortFunc(out, func(x, y [2]int) int { return cmp.Compare(x[0], y[0]) })
	s.out = out
	return out
}
