// Package tm builds the rack-level traffic matrices used by the fluid-flow
// throughput engine (§2, §5): permutation TMs, the longest-matching TMs of
// Jyothi et al. used as near-worst-case inputs, all-to-all, many-to-one,
// one-to-many and the fat-tree pod-to-pod TM of Observation 1.
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
	"sort"

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

// ActiveRacks returns the sorted set of racks appearing in the TM.
func (m *TM) ActiveRacks() []int {
	set := map[int]bool{}
	for _, d := range m.Demands {
		set[d.Src] = true
		set[d.Dst] = true
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// TotalDemand returns the sum of all demand amounts.
func (m *TM) TotalDemand() float64 {
	total := 0.0
	for _, d := range m.Demands {
		total += d.Amount
	}
	return total
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

// Uniform returns a serversOf function for homogeneous racks.
func Uniform(serversPerRack int) func(int) int {
	return func(int) int { return serversPerRack }
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

// RandomDerangement builds a random server-style permutation at rack level:
// every rack sends to exactly one distinct rack and receives from exactly
// one, with no fixed points (a directed cycle cover), which is the TM family
// of Theorem 2.1 at rack granularity.
func RandomDerangement(racks []int, serversOf func(int) int, rng *rand.Rand) *TM {
	n := len(racks)
	if n < 2 {
		panic("tm: derangement needs >= 2 racks")
	}
	perm := rng.Perm(n)
	// Fix fixed points by swapping with a neighbor.
	for i := 0; i < n; i++ {
		if perm[i] == i {
			j := (i + 1) % n
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	m := &TM{Name: fmt.Sprintf("derangement-%d", n)}
	for i := 0; i < n; i++ {
		if perm[i] == i {
			continue // can remain only for n==1
		}
		amt := float64(minInt(serversOf(racks[i]), serversOf(racks[perm[i]])))
		m.Demands = append(m.Demands, Demand{
			Src: racks[i], Dst: racks[perm[i]], Amount: amt,
		})
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

// ManyToOne builds a TM where every source rack sends to a single sink rack,
// respecting the sink's hose constraint: each of the k sources sends
// serversPerRack/k units.
func ManyToOne(sources []int, sink int, serversPerRack int) *TM {
	if len(sources) == 0 {
		panic("tm: many-to-one needs sources")
	}
	per := float64(serversPerRack) / float64(len(sources))
	m := &TM{Name: fmt.Sprintf("many-to-one-%d", len(sources))}
	for _, s := range sources {
		if s == sink {
			panic("tm: source equals sink")
		}
		m.Demands = append(m.Demands, Demand{Src: s, Dst: sink, Amount: per})
	}
	return m
}

// OneToMany is the mirror image of ManyToOne.
func OneToMany(source int, sinks []int, serversPerRack int) *TM {
	if len(sinks) == 0 {
		panic("tm: one-to-many needs sinks")
	}
	per := float64(serversPerRack) / float64(len(sinks))
	m := &TM{Name: fmt.Sprintf("one-to-many-%d", len(sinks))}
	for _, s := range sinks {
		if s == source {
			panic("tm: sink equals source")
		}
		m.Demands = append(m.Demands, Demand{Src: source, Dst: s, Amount: per})
	}
	return m
}

// PodToPod builds the Observation-1 TM: every rack in srcRacks sends all its
// demand to a distinct rack in dstRacks (index-aligned), modelling one pod's
// servers each talking to a unique server in another pod.
func PodToPod(srcRacks, dstRacks []int, serversPerRack int) *TM {
	if len(srcRacks) != len(dstRacks) {
		panic("tm: pod-to-pod needs equal-size rack sets")
	}
	m := &TM{Name: "pod-to-pod"}
	for i := range srcRacks {
		m.Demands = append(m.Demands, Demand{
			Src: srcRacks[i], Dst: dstRacks[i], Amount: float64(serversPerRack),
		})
	}
	return m
}
