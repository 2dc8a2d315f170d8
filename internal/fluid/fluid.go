// Package fluid implements the paper's fluid-flow throughput model (§2, §5):
// maximum concurrent flow over a switch-level topology under a rack-level
// traffic matrix, the throughput-proportionality benchmark, and the
// unrestricted/restricted dynamic-topology models of §4.
//
// Two solvers are provided: an exact LP formulation (internal/lp, for small
// instances and tests) and the Garg–Könemann/Fleischer FPTAS for paper-scale
// instances. Both return "throughput per server": the largest t such that
// every demand can be concurrently satisfied at t times its amount, with
// amounts expressed in server line rates.
package fluid

import (
	"beyondft/internal/graph"
	"beyondft/internal/tm"
)

// Arc is a directed capacity-carrying link between switches.
type Arc struct {
	From, To int
	Cap      float64
}

// Network is the arc-level view of a topology used by the flow solvers.
// Arcs are stored in CSR order — grouped by From, ascending To within a
// group — so the solver hot loops scan contiguous ranges instead of chasing
// per-node index slices.
type Network struct {
	N    int
	Arcs []Arc
	// Out[v] lists arc indices leaving v (the contiguous range
	// arcStart[v]..arcStart[v+1], kept as ints for the LP formulation).
	Out [][]int
	// arcStart/arcTo are the flat CSR arrays the Dijkstra inner loop runs
	// on: arcTo[k] == Arcs[k].To for k in [arcStart[v], arcStart[v+1]).
	// arcFrom/arcCap mirror Arcs[k].From/.Cap for the GK augmentation loops,
	// which walk a parent chain and would otherwise load a 24-byte Arc per
	// hop for one field.
	arcStart []int32
	arcTo    []int32
	arcFrom  []int32
	arcCap   []float64
}

// NewNetwork expands an undirected multigraph into a directed arc network:
// each distinct undirected edge of multiplicity μ becomes two arcs of
// capacity μ·linkCap, emitted in CSR order off the graph's frozen view.
func NewNetwork(g *graph.Graph, linkCap float64) *Network {
	return NewNetworkFromView(g.Frozen(), linkCap)
}

// NewNetworkFromView builds the arc network off any CSR-shaped view — a
// frozen base graph or a delta overlay (graph.Overlay) — so what-if
// scenarios get a patched arc layout without rebuilding the base graph.
// Arc order is the view's row order, which is what makes base→scenario arc
// mapping (ArcIndex) well-defined for warm starts.
func NewNetworkFromView(c graph.View, linkCap float64) *Network {
	n := c.N()
	m := 0
	for u := 0; u < n; u++ {
		nbr, _ := c.Row(u)
		m += len(nbr)
	}
	nw := &Network{
		N:        n,
		Arcs:     make([]Arc, 0, m),
		Out:      make([][]int, n),
		arcStart: make([]int32, n+1),
		arcTo:    make([]int32, 0, m),
		arcFrom:  make([]int32, 0, m),
		arcCap:   make([]float64, 0, m),
	}
	out := make([]int, m) // out[i] == i: one backing array for every Out row
	for i := range out {
		out[i] = i
	}
	for u := 0; u < n; u++ {
		nbr, mult := c.Row(u)
		for k, v := range nbr {
			cp := float64(mult[k]) * linkCap
			nw.Arcs = append(nw.Arcs, Arc{From: u, To: int(v), Cap: cp})
			nw.arcTo = append(nw.arcTo, v)
			nw.arcFrom = append(nw.arcFrom, int32(u))
			nw.arcCap = append(nw.arcCap, cp)
		}
		hi := len(nw.Arcs)
		nw.Out[u] = out[nw.arcStart[u]:hi:hi]
		nw.arcStart[u+1] = int32(hi)
	}
	return nw
}

// ArcIndex returns the index of the directed arc u→v, or -1 if no such arc
// exists (or u is out of range). Arcs within a row are ascending by To (CSR
// order), so the lookup is a binary search over the row.
func (nw *Network) ArcIndex(u, v int) int {
	if u < 0 || u >= nw.N {
		return -1
	}
	lo, hi := int(nw.arcStart[u]), int(nw.arcStart[u+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if int(nw.arcTo[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(nw.arcStart[u+1]) && int(nw.arcTo[lo]) == v {
		return lo
	}
	return -1
}

// Commodity is a demand routed by the solvers.
type Commodity struct {
	Src, Dst int
	Demand   float64
}

// Commodities converts a rack-level TM into solver commodities, merging
// duplicate (src,dst) pairs and dropping zero demands.
func Commodities(m *tm.TM) []Commodity {
	type key struct{ s, d int }
	agg := map[key]float64{}
	var order []key
	for _, d := range m.Demands {
		if d.Amount <= 0 || d.Src == d.Dst {
			continue
		}
		k := key{d.Src, d.Dst}
		if _, ok := agg[k]; !ok {
			order = append(order, k)
		}
		agg[k] += d.Amount
	}
	out := make([]Commodity, 0, len(order))
	for _, k := range order {
		out = append(out, Commodity{Src: k.s, Dst: k.d, Demand: agg[k]})
	}
	return out
}
