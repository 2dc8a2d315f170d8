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
	nw := &Network{}
	nw.build(nil, c, linkCap)
	return nw
}

// build lays c's arcs out in nw's own arrays, over whatever they held, and
// returns the backing array of the Out rows (out, grown if it was too short).
func (nw *Network) build(out []int, c graph.View, linkCap float64) []int {
	n := c.N()
	m := 0
	for u := 0; u < n; u++ {
		nbr, _ := c.Row(u)
		m += len(nbr)
	}
	if cap(nw.Arcs) < m {
		nw.Arcs = make([]Arc, 0, m)
		nw.arcTo = make([]int32, 0, m)
		nw.arcFrom = make([]int32, 0, m)
		nw.arcCap = make([]float64, 0, m)
	}
	if cap(nw.Out) < n {
		nw.Out = make([][]int, n)
		nw.arcStart = make([]int32, n+1)
	}
	nw.N = n
	nw.Arcs, nw.arcTo, nw.arcFrom, nw.arcCap = nw.Arcs[:0], nw.arcTo[:0], nw.arcFrom[:0], nw.arcCap[:0]
	nw.Out, nw.arcStart = nw.Out[:n], nw.arcStart[:n+1]
	if cap(out) < m {
		out = make([]int, m) // out[i] == i: one backing array for every Out row
		for i := range out {
			out[i] = i
		}
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
	return out
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
	var ws Workspace
	return ws.Commodities(m)
}

// Workspace keeps the memory of one evaluation — the arc network, the
// commodity list, the solver's arrays — for the next one on it. A caller
// that evaluates one instance after another of about one size (a design
// search's candidates) allocates for the first few only. Whatever a Workspace
// hands out is valid until the same method is called on it again; one
// goroutine at a time.
type Workspace struct {
	nw    Network
	out   []int
	agg   map[commKey]float64
	order []commKey
	comms []Commodity
	gk    gkBuffers
}

type commKey struct{ s, d int }

// Network is NewNetworkFromView on the workspace's arrays.
func (ws *Workspace) Network(c graph.View, linkCap float64) *Network {
	ws.out = ws.nw.build(ws.out, c, linkCap)
	return &ws.nw
}

// Commodities is the package function on the workspace's arrays.
func (ws *Workspace) Commodities(m *tm.TM) []Commodity {
	if ws.agg == nil {
		ws.agg = map[commKey]float64{}
	}
	clear(ws.agg)
	agg, order := ws.agg, ws.order[:0]
	for _, d := range m.Demands {
		if d.Amount <= 0 || d.Src == d.Dst {
			continue
		}
		k := commKey{d.Src, d.Dst}
		if _, ok := agg[k]; !ok {
			order = append(order, k)
		}
		agg[k] += d.Amount
	}
	if cap(ws.comms) < len(order) {
		ws.comms = make([]Commodity, 0, len(order))
	}
	out := ws.comms[:0]
	for _, k := range order {
		out = append(out, Commodity{Src: k.s, Dst: k.d, Demand: agg[k]})
	}
	ws.order, ws.comms = order, out
	return out
}
