package workload

import (
	"fmt"
	"sort"

	"beyondft/internal/topology"
)

// PairDist samples (source server, destination server) pairs for new flows.
type PairDist interface {
	Name() string
	Sample(rng Rand) (src, dst int)
	// ActiveServers returns how many servers can appear in flows.
	ActiveServers() int
}

// rackServers precomputes the server IDs on each rack of a topology.
func rackServers(t *topology.Topology) map[int][]int {
	out := map[int][]int{}
	id := 0
	for sw, cnt := range t.Servers {
		for j := 0; j < cnt; j++ {
			out[sw] = append(out[sw], id)
			id++
		}
	}
	return out
}

// ActiveRacks picks the racks participating in an x-fraction workload. For
// fat-trees the paper uses the first x fraction (consecutive pods); for flat
// topologies, a random x fraction.
func ActiveRacks(t *topology.Topology, x float64, consecutive bool, rng Rand) []int {
	tors := t.ToRs()
	k := int(x*float64(len(tors)) + 0.5)
	if k < 2 {
		k = 2
	}
	if k > len(tors) {
		k = len(tors)
	}
	if consecutive {
		return append([]int(nil), tors[:k]...)
	}
	shuffled := append([]int(nil), tors...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	out := shuffled[:k]
	sort.Ints(out)
	return out
}

// A2A is the A2A(x) distribution: uniform flows between all server pairs on
// the active racks.
type A2A struct {
	servers []int // all servers on active racks
}

// NewA2A builds A2A over the given active racks of t.
func NewA2A(t *topology.Topology, activeRacks []int) *A2A {
	rs := rackServers(t)
	var servers []int
	for _, r := range activeRacks {
		servers = append(servers, rs[r]...)
	}
	if len(servers) < 2 {
		panic("workload: A2A needs >= 2 active servers")
	}
	return &A2A{servers: servers}
}

// Name implements PairDist.
func (a *A2A) Name() string { return fmt.Sprintf("a2a-%d", len(a.servers)) }

// ActiveServers implements PairDist.
func (a *A2A) ActiveServers() int { return len(a.servers) }

// Sample implements PairDist.
func (a *A2A) Sample(rng Rand) (int, int) {
	s := a.servers[rng.Intn(len(a.servers))]
	for {
		d := a.servers[rng.Intn(len(a.servers))]
		if d != s {
			return s, d
		}
	}
}

// Permute is the Permute(x) distribution: a fixed random rack-level
// matching among the active racks; flows start between matched racks only.
type Permute struct {
	pairs   [][2][]int // server lists of each matched rack pair
	servers int
}

// NewPermute matches the active racks pairwise at random.
func NewPermute(t *topology.Topology, activeRacks []int, rng Rand) *Permute {
	if len(activeRacks) < 2 {
		panic("workload: Permute needs >= 2 racks")
	}
	racks := append([]int(nil), activeRacks...)
	rng.Shuffle(len(racks), func(i, j int) { racks[i], racks[j] = racks[j], racks[i] })
	rs := rackServers(t)
	p := &Permute{}
	for i := 0; i+1 < len(racks); i += 2 {
		a, b := rs[racks[i]], rs[racks[i+1]]
		p.pairs = append(p.pairs, [2][]int{a, b})
		p.servers += len(a) + len(b)
	}
	return p
}

// Name implements PairDist.
func (p *Permute) Name() string { return fmt.Sprintf("permute-%d", len(p.pairs)*2) }

// ActiveServers implements PairDist.
func (p *Permute) ActiveServers() int { return p.servers }

// Sample implements PairDist.
func (p *Permute) Sample(rng Rand) (int, int) {
	pr := p.pairs[rng.Intn(len(p.pairs))]
	a, b := pr[0], pr[1]
	if rng.Intn(2) == 0 {
		a, b = b, a
	}
	return a[rng.Intn(len(a))], b[rng.Intn(len(b))]
}

// Skew implements the Skew(θ,φ) model of §6.7: a θ fraction of racks are
// "hot" and carry a φ fraction of the communication probability mass; a
// rack pair's probability is the product of its endpoints' participation
// probabilities, normalized.
type Skew struct {
	theta, phi float64
	racks      []int
	weight     []float64 // per-rack participation probability
	cum        []float64
	byRack     map[int][]int
	servers    int
}

// NewSkew builds Skew(θ,φ) over all racks of t with a random hot set.
func NewSkew(t *topology.Topology, theta, phi float64, rng Rand) *Skew {
	tors := t.ToRs()
	if len(tors) < 2 {
		panic("workload: Skew needs >= 2 racks")
	}
	nHot := int(theta*float64(len(tors)) + 0.5)
	if nHot < 1 {
		nHot = 1
	}
	if nHot >= len(tors) {
		nHot = len(tors) - 1
	}
	perm := rng.Perm(len(tors))
	hot := map[int]bool{}
	for _, i := range perm[:nHot] {
		hot[tors[i]] = true
	}
	s := &Skew{theta: theta, phi: phi, racks: tors, byRack: rackServers(t)}
	nCold := len(tors) - nHot
	for _, r := range tors {
		var w float64
		if hot[r] {
			w = phi / float64(nHot)
		} else {
			w = (1 - phi) / float64(nCold)
		}
		s.weight = append(s.weight, w)
	}
	total := 0.0
	for _, w := range s.weight {
		total += w
	}
	run := 0.0
	for _, w := range s.weight {
		run += w / total
		s.cum = append(s.cum, run)
	}
	s.servers = t.TotalServers()
	return s
}

// Name implements PairDist.
func (s *Skew) Name() string { return fmt.Sprintf("skew-%.2f-%.2f", s.theta, s.phi) }

// ActiveServers implements PairDist.
func (s *Skew) ActiveServers() int { return s.servers }

func (s *Skew) sampleRack(rng Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(s.cum, u)
	if i >= len(s.racks) {
		i = len(s.racks) - 1
	}
	return s.racks[i]
}

// Sample implements PairDist.
func (s *Skew) Sample(rng Rand) (int, int) {
	for {
		ra := s.sampleRack(rng)
		rb := s.sampleRack(rng)
		if ra == rb {
			continue
		}
		as, bs := s.byRack[ra], s.byRack[rb]
		return as[rng.Intn(len(as))], bs[rng.Intn(len(bs))]
	}
}

// TwoRacks is the Fig. 7(b) corner case: nPerRack servers on each of two
// racks exchange traffic with the other rack's servers.
type TwoRacks struct {
	a, b []int
}

// NewTwoRacks selects the first nPerRack servers of each rack.
func NewTwoRacks(t *topology.Topology, rackA, rackB, nPerRack int) *TwoRacks {
	rs := rackServers(t)
	a, b := rs[rackA], rs[rackB]
	if len(a) < nPerRack || len(b) < nPerRack {
		panic("workload: racks too small for TwoRacks")
	}
	return &TwoRacks{a: a[:nPerRack], b: b[:nPerRack]}
}

// Name implements PairDist.
func (tr *TwoRacks) Name() string { return fmt.Sprintf("tworacks-%d", len(tr.a)+len(tr.b)) }

// ActiveServers implements PairDist.
func (tr *TwoRacks) ActiveServers() int { return len(tr.a) + len(tr.b) }

// Sample implements PairDist.
func (tr *TwoRacks) Sample(rng Rand) (int, int) {
	if rng.Intn(2) == 0 {
		return tr.a[rng.Intn(len(tr.a))], tr.b[rng.Intn(len(tr.b))]
	}
	return tr.b[rng.Intn(len(tr.b))], tr.a[rng.Intn(len(tr.a))]
}

// PairMatrix is a general rack-pair probability matrix distribution; it
// backs the ProjecToR-like synthetic trace.
type PairMatrix struct {
	name    string
	pairs   [][2]int
	cum     []float64
	byRack  map[int][]int
	servers int
}

// NewProjecToRLike synthesizes a heavy-tailed rack-pair matrix with the
// ProjecToR summary statistic: hotFrac of the probability mass concentrated
// on hotPairFrac of the rack pairs (paper: 77% of bytes over 4% of pairs).
func NewProjecToRLike(t *topology.Topology, hotPairFrac, hotFrac float64, rng Rand) *PairMatrix {
	tors := t.ToRs()
	var pairs [][2]int
	for i := 0; i < len(tors); i++ {
		for j := 0; j < len(tors); j++ {
			if i != j {
				pairs = append(pairs, [2]int{tors[i], tors[j]})
			}
		}
	}
	nHot := int(hotPairFrac*float64(len(pairs)) + 0.5)
	if nHot < 1 {
		nHot = 1
	}
	perm := rng.Perm(len(pairs))
	weights := make([]float64, len(pairs))
	for idx, pi := range perm {
		if idx < nHot {
			weights[pi] = hotFrac / float64(nHot)
		} else {
			weights[pi] = (1 - hotFrac) / float64(len(pairs)-nHot)
		}
	}
	pm := &PairMatrix{
		name:    fmt.Sprintf("projector-like-%.2f-%.2f", hotPairFrac, hotFrac),
		pairs:   pairs,
		byRack:  rackServers(t),
		servers: t.TotalServers(),
	}
	run := 0.0
	for _, w := range weights {
		run += w
		pm.cum = append(pm.cum, run)
	}
	return pm
}

// Name implements PairDist.
func (pm *PairMatrix) Name() string { return pm.name }

// ActiveServers implements PairDist.
func (pm *PairMatrix) ActiveServers() int { return pm.servers }

// Sample implements PairDist.
func (pm *PairMatrix) Sample(rng Rand) (int, int) {
	u := rng.Float64()
	i := sort.SearchFloat64s(pm.cum, u)
	if i >= len(pm.pairs) {
		i = len(pm.pairs) - 1
	}
	p := pm.pairs[i]
	as, bs := pm.byRack[p[0]], pm.byRack[p[1]]
	return as[rng.Intn(len(as))], bs[rng.Intn(len(bs))]
}
