package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// View is the read-only CSR-shaped interface the flat-array kernels and the
// fluid solver's arc-layout builder consume: a node count and per-node
// ascending (neighbor, multiplicity) rows. Both *CSR (a frozen base graph)
// and *Overlay (a frozen base graph plus a Delta) implement it, so a
// perturbed topology can feed the same kernels without rebuilding the base.
type View interface {
	N() int
	Row(u int) (neighbors, mults []int32)
}

// Delta is a perturbation of a frozen graph view: edges removed or added,
// whole nodes masked (all incident edges removed, the node id kept so rack
// and TM indices stay stable), and fresh nodes appended after the base
// range. It is the unit of work of the what-if engine: one Delta per
// failure/expansion scenario.
type Delta struct {
	// DelEdges removes Mult units of multiplicity from each listed edge
	// (clamped at the existing multiplicity, exactly like Mult repeated
	// calls to Graph.RemoveEdge). Mult <= 0 means 1.
	DelEdges []Edge `json:"del_edges,omitempty"`
	// AddEdges adds Mult units of multiplicity to each listed edge
	// (Mult <= 0 means 1). Endpoints may reference appended nodes.
	AddEdges []Edge `json:"add_edges,omitempty"`
	// DelNodes masks nodes: every edge incident to a listed node is
	// removed. The node keeps its id (an isolated vertex), so indices of
	// the surviving nodes are unchanged.
	DelNodes []int `json:"del_nodes,omitempty"`
	// AddNodes appends this many fresh nodes after the base node range;
	// AddEdges may wire them in.
	AddNodes int `json:"add_nodes,omitempty"`
}

// Overlay is a Delta applied over a frozen CSR view without rebuilding it:
// rows the delta does not touch alias the base arrays, touched rows are
// re-merged once at construction. It implements View, so path kernels and
// the fluid solver's arc layout consume it exactly like a rebuilt CSR —
// Reset guarantees the two are indistinguishable (FuzzDeltaOverlay holds it
// to that).
//
// Like the CSR it wraps, an Overlay is immutable between Resets and safe for
// concurrent readers; it stays valid only as long as the base view does
// (mutating the owning Graph invalidates both). The zero Overlay is ready
// for Reset.
type Overlay struct {
	base *CSR
	n    int
	// rows lists the patched nodes, ascending: every base row the delta
	// touches and every appended node (whose row may be empty). Row k's
	// neighbors are nbr[start[k]:start[k+1]], their multiplicities in the
	// same slots of mult; rows not listed fall through to base.
	rows, start, nbr, mult []int32
	// The build's own lists, kept for the next Reset: the edge edits in
	// (u, v) order, both directions of every edge, and the masked nodes,
	// ascending and distinct.
	edits   []overlayEdit
	deleted []int32
}

// overlayEdit is multiplicity removed from (del) and added to (add) the
// edge slot (u, v). Deletions apply first, clamped at the base
// multiplicity, then additions — the same outcome as replaying every
// RemoveEdge and then every AddEdge on a mutable Graph.
type overlayEdit struct {
	u, v     int32
	del, add int
}

// NewOverlay applies a delta to a frozen view: Reset on a fresh Overlay.
func NewOverlay(base *CSR, d Delta) (*Overlay, error) {
	o := new(Overlay)
	if err := o.Reset(base, d); err != nil {
		return nil, err
	}
	return o, nil
}

// Reset makes o the overlay of d over base, in o's own arrays: a caller
// that applies delta after delta to one Overlay (a what-if worker) allocates
// only while they grow. Rows o handed out before are invalid after it. It
// validates endpoints (range, self-loops) and returns an error rather than
// panicking — deltas arrive from HTTP requests and fuzzers, not just trusted
// generators — and o is then unusable until the next Reset succeeds.
func (o *Overlay) Reset(base *CSR, d Delta) error {
	o.base, o.n = nil, 0
	o.rows, o.start, o.nbr, o.mult = o.rows[:0], o.start[:0], o.nbr[:0], o.mult[:0]
	o.edits, o.deleted = o.edits[:0], o.deleted[:0]
	if base == nil {
		return fmt.Errorf("graph: overlay over nil view")
	}
	if d.AddNodes < 0 {
		return fmt.Errorf("graph: overlay AddNodes=%d negative", d.AddNodes)
	}
	n := base.n + d.AddNodes
	for _, u := range d.DelNodes {
		if u < 0 || u >= n {
			return fmt.Errorf("graph: overlay deletes node %d out of range [0,%d)", u, n)
		}
		o.deleted = append(o.deleted, int32(u))
	}
	slices.Sort(o.deleted)
	o.deleted = slices.Compact(o.deleted)
	checkEdge := func(e Edge, what string) error {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("graph: overlay %s edge (%d,%d) out of range [0,%d)", what, e.U, e.V, n)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: overlay %s self-loop at node %d", what, e.U)
		}
		return nil
	}
	for _, e := range d.DelEdges {
		if err := checkEdge(e, "deletes"); err != nil {
			return err
		}
		m := max(e.Mult, 1)
		o.edits = append(o.edits, overlayEdit{u: int32(e.U), v: int32(e.V), del: m},
			overlayEdit{u: int32(e.V), v: int32(e.U), del: m})
	}
	for _, e := range d.AddEdges {
		if err := checkEdge(e, "adds"); err != nil {
			return err
		}
		if o.isDeleted(int32(e.U)) || o.isDeleted(int32(e.V)) {
			return fmt.Errorf("graph: overlay adds edge (%d,%d) incident to a deleted node", e.U, e.V)
		}
		m := max(e.Mult, 1)
		o.edits = append(o.edits, overlayEdit{u: int32(e.U), v: int32(e.V), add: m},
			overlayEdit{u: int32(e.V), v: int32(e.U), add: m})
	}
	slices.SortFunc(o.edits, func(a, b overlayEdit) int {
		return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v))
	})

	// The patched rows: every edited row; every deleted node's, and its
	// neighbors', which lose their edges to it; every appended node's, even
	// if no edge wires it.
	for _, e := range o.edits {
		o.rows = append(o.rows, e.u)
	}
	for _, u := range o.deleted {
		o.rows = append(o.rows, u)
		if int(u) < base.n {
			nbr, _ := base.Row(int(u))
			o.rows = append(o.rows, nbr...)
		}
	}
	for u := base.n; u < n; u++ {
		o.rows = append(o.rows, int32(u))
	}
	slices.Sort(o.rows)
	o.rows = slices.Compact(o.rows)

	o.start = append(o.start, 0)
	edits := o.edits
	for _, u := range o.rows {
		k := 0
		for k < len(edits) && edits[k].u == u {
			k++
		}
		o.mergeRow(base, u, edits[:k])
		edits = edits[k:]
		o.start = append(o.start, int32(len(o.nbr)))
	}
	o.base, o.n = base, n
	return nil
}

// mergeRow appends node u's patched row to o.nbr/o.mult: the base row (none
// for appended or deleted nodes) merged with u's edits, which are ascending
// by v, neighbors to deleted nodes dropped.
func (o *Overlay) mergeRow(base *CSR, u int32, edits []overlayEdit) {
	if o.isDeleted(u) {
		return
	}
	var bn, bm []int32
	if int(u) < base.n {
		bn, bm = base.Row(int(u))
	}
	for len(bn) > 0 || len(edits) > 0 {
		var v int32
		m := 0
		if len(edits) == 0 || len(bn) > 0 && bn[0] < edits[0].v {
			v, m = bn[0], int(bm[0])
			bn, bm = bn[1:], bm[1:]
		} else {
			v = edits[0].v
			if len(bn) > 0 && bn[0] == v {
				m = int(bm[0])
				bn, bm = bn[1:], bm[1:]
			}
			del, add := 0, 0
			for len(edits) > 0 && edits[0].v == v {
				del, add = del+edits[0].del, add+edits[0].add
				edits = edits[1:]
			}
			m = max(m-del, 0) + add
		}
		if m > 0 && !o.isDeleted(v) {
			o.nbr = append(o.nbr, v)
			o.mult = append(o.mult, int32(m))
		}
	}
}

// isDeleted reports whether the delta masks node u.
func (o *Overlay) isDeleted(u int32) bool {
	_, ok := slices.BinarySearch(o.deleted, u)
	return ok
}

// N returns the overlay's node count (base nodes plus appended ones).
func (o *Overlay) N() int { return o.n }

// Row returns the ascending distinct neighbors of u and their
// multiplicities. Untouched rows alias the base view's arrays; either way
// the slices must not be mutated.
func (o *Overlay) Row(u int) (neighbors, mults []int32) {
	if k, ok := slices.BinarySearch(o.rows, int32(u)); ok {
		lo, hi := o.start[k], o.start[k+1]
		return o.nbr[lo:hi:hi], o.mult[lo:hi:hi]
	}
	return o.base.Row(u)
}

// ViewConnected reports whether every node of the view is reachable from
// node 0 (vacuously true for n <= 1) — connectivity over all v.N() nodes,
// matching CSR.Connected on a rebuilt graph of the same shape. Masked
// (isolated) nodes therefore make it false; the what-if engine uses
// per-commodity reachability instead when that is too strict.
func ViewConnected(v View) bool {
	n := v.N()
	if n <= 1 {
		return true
	}
	reached := 0
	for _, d := range ViewBFS(v, 0) {
		if d >= 0 {
			reached++
		}
	}
	return reached == n
}

// ViewBFS runs an unweighted BFS over any View from src, returning hop
// distances with -1 for unreachable nodes.
func ViewBFS(v View, src int) []int {
	n := v.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		du := dist[u]
		nbr, _ := v.Row(u)
		for _, w := range nbr {
			if dist[w] < 0 {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Components labels the connected components of an undirected view — rows
// symmetric, as a CSR's and an Overlay's are — keeping its arrays from one
// view to the next.
type Components struct {
	label, queue []int32
}

// Label labels v's components, one BFS per component: afterwards Same
// answers for v, until the next Label.
func (c *Components) Label(v View) {
	n := v.N()
	c.label = slices.Grow(c.label[:0], n)[:n]
	for i := range c.label {
		c.label[i] = -1
	}
	queue := slices.Grow(c.queue[:0], n)
	for s := range int32(n) {
		if c.label[s] >= 0 {
			continue
		}
		c.label[s] = s
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			nbr, _ := v.Row(int(queue[head]))
			for _, w := range nbr {
				if c.label[w] < 0 {
					c.label[w] = s
					queue = append(queue, w)
				}
			}
		}
	}
	c.queue = queue
}

// Same reports whether u and w are in one component of the labelled view.
func (c *Components) Same(u, w int) bool { return c.label[u] == c.label[w] }
