// Package tm builds the rack-level traffic matrices used by the fluid-flow
// throughput engine (§2, §5): permutation TMs, the longest-matching TMs of
// Jyothi et al. used as near-worst-case inputs, and all-to-all.
//
// Demands are expressed in units of server line rate: a rack hosting s
// servers that sends all its traffic to one peer rack has demand s. The
// fluid engine maximizes a common scale factor t over all demands; because
// demands are normalized per server, t is directly "throughput per server"
// as a fraction of line rate.
package tm

import (
	"fmt"
	"math/rand"

	"beyondft/internal/graph"
)

// Demand is a directed rack-to-rack traffic demand.
type Demand struct {
	Src, Dst int
	Amount   float64 // in server-line-rate units
}

// TM is a rack-level traffic matrix.
type TM struct {
	Name    string
	Demands []Demand
}

// ValidateHose checks the hose-model constraint at scale t=1: the total
// demand out of (and into) each rack must not exceed its server capacity.
func (m *TM) ValidateHose(serversOf func(rack int) int) error {
	out := map[int]float64{}
	in := map[int]float64{}
	for _, d := range m.Demands {
		if d.Src == d.Dst {
			return fmt.Errorf("tm %s: self demand at rack %d", m.Name, d.Src)
		}
		if d.Amount < 0 {
			return fmt.Errorf("tm %s: negative demand %v", m.Name, d)
		}
		out[d.Src] += d.Amount
		in[d.Dst] += d.Amount
	}
	const eps = 1e-9
	for r, v := range out {
		if cap := float64(serversOf(r)); v > cap+eps {
			return fmt.Errorf("tm %s: rack %d sends %.3f > %d servers", m.Name, r, v, serversOf(r))
		}
	}
	for r, v := range in {
		if cap := float64(serversOf(r)); v > cap+eps {
			return fmt.Errorf("tm %s: rack %d receives %.3f > %d servers", m.Name, r, v, serversOf(r))
		}
	}
	return nil
}

// RandomPermutation builds a random rack-level permutation TM over the given
// racks: racks are paired up and each pair exchanges demand equal to the
// smaller rack's server count in both directions. len(racks) must be even.
func RandomPermutation(racks []int, serversOf func(int) int, rng *rand.Rand) *TM {
	if len(racks)%2 != 0 {
		panic(fmt.Sprintf("tm: permutation needs an even rack count, got %d", len(racks)))
	}
	shuffled := append([]int(nil), racks...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	m := &TM{Name: fmt.Sprintf("permutation-%d", len(racks))}
	for i := 0; i+1 < len(shuffled); i += 2 {
		a, b := shuffled[i], shuffled[i+1]
		amt := float64(minInt(serversOf(a), serversOf(b)))
		m.Demands = append(m.Demands,
			Demand{Src: a, Dst: b, Amount: amt},
			Demand{Src: b, Dst: a, Amount: amt})
	}
	return m
}

// LongestMatching builds the near-worst-case TM of §5: participating racks
// are matched pairwise so as to maximize total shortest-path distance
// between partners (greedy + 2-opt maximum-weight matching on distances),
// and each pair exchanges serversPerRack demand in both directions. The
// per-rack BFS fans out across graph.Parallelism() workers on the frozen
// CSR view; the result is identical at any worker count.
func LongestMatching(g *graph.Graph, racks []int, serversOf func(int) int) *TM {
	m := &TM{}
	var s MatchingScratch
	s.LongestMatching(m, g, racks, serversOf)
	return m
}

// MatchingScratch keeps LongestMatching's working memory — the BFS rows and
// the matching's candidate list, all but a few hundred bytes of a call — from
// one call to the next.
type MatchingScratch struct {
	bfs   graph.BFSBuffer
	rowOf [][]int // by rack: its BFS row
	match graph.MatchingScratch
}

// LongestMatching builds LongestMatching(g, racks, serversOf) in m, over
// whatever m held, on s's buffers.
func (s *MatchingScratch) LongestMatching(m *TM, g *graph.Graph, racks []int, serversOf func(int) int) {
	rows := g.Frozen().BFSManyInto(&s.bfs, racks)
	if cap(s.rowOf) < g.N() {
		s.rowOf = make([][]int, g.N())
	}
	rowOf := s.rowOf[:g.N()]
	for i, r := range racks {
		rowOf[r] = rows[i]
	}
	pairs := s.match.MaxWeightMatching(racks, func(a, b int) float64 {
		return float64(rowOf[a][b])
	})
	m.Name = fmt.Sprintf("longest-matching-%d", len(racks))
	m.Demands = m.Demands[:0]
	for _, p := range pairs {
		amt := float64(minInt(serversOf(p[0]), serversOf(p[1])))
		m.Demands = append(m.Demands,
			Demand{Src: p[0], Dst: p[1], Amount: amt},
			Demand{Src: p[1], Dst: p[0], Amount: amt})
	}
}

// AllToAll builds the uniform all-to-all TM over the given racks: each rack
// spreads its server capacity evenly over all other participants.
func AllToAll(racks []int, serversOf func(int) int) *TM {
	n := len(racks)
	if n < 2 {
		panic("tm: all-to-all needs >= 2 racks")
	}
	m := &TM{Name: fmt.Sprintf("all-to-all-%d", n)}
	for _, a := range racks {
		per := float64(serversOf(a)) / float64(n-1)
		for _, b := range racks {
			if a != b {
				m.Demands = append(m.Demands, Demand{Src: a, Dst: b, Amount: per})
			}
		}
	}
	return m
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
