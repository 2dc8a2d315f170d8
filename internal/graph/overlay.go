package graph

import (
	"fmt"
	"sort"
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
// NewOverlay guarantees the two are indistinguishable (FuzzDeltaOverlay
// holds it to that).
//
// Like the CSR it wraps, an Overlay is immutable and safe for concurrent
// readers; it stays valid only as long as the base view does (mutating the
// owning Graph invalidates both).
type Overlay struct {
	base *CSR
	n    int
	// patched[u], for touched base rows u, holds the re-merged row;
	// untouched rows fall through to base. Appended nodes (u >= base.n)
	// always have a patched row (possibly empty).
	patched map[int]patchedRow
}

type patchedRow struct {
	neighbor []int32
	mult     []int32
}

// NewOverlay applies a delta to a frozen view. It validates endpoints
// (range, self-loops) and returns an error rather than panicking: deltas
// arrive from HTTP requests and fuzzers, not just trusted generators.
func NewOverlay(base *CSR, d Delta) (*Overlay, error) {
	if base == nil {
		return nil, fmt.Errorf("graph: overlay over nil view")
	}
	if d.AddNodes < 0 {
		return nil, fmt.Errorf("graph: overlay AddNodes=%d negative", d.AddNodes)
	}
	n := base.n + d.AddNodes
	o := &Overlay{base: base, n: n, patched: map[int]patchedRow{}}

	// edits[u][v] accumulates the multiplicity removed from and added to
	// (u,v) separately: deletions apply first (clamped at the base
	// multiplicity), then additions — the same outcome as replaying all
	// RemoveEdge calls then all AddEdge calls on a mutable Graph.
	edits := map[int]map[int]overlayEdit{}
	edit := func(u, v, del, add int) {
		row, ok := edits[u]
		if !ok {
			row = map[int]overlayEdit{}
			edits[u] = row
		}
		p := row[v]
		p.del += del
		p.add += add
		row[v] = p
	}
	deleted := map[int]bool{}
	for _, u := range d.DelNodes {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("graph: overlay deletes node %d out of range [0,%d)", u, n)
		}
		deleted[u] = true
	}
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
			return nil, err
		}
		m := e.Mult
		if m <= 0 {
			m = 1
		}
		edit(e.U, e.V, m, 0)
		edit(e.V, e.U, m, 0)
	}
	for _, e := range d.AddEdges {
		if err := checkEdge(e, "adds"); err != nil {
			return nil, err
		}
		if deleted[e.U] || deleted[e.V] {
			return nil, fmt.Errorf("graph: overlay adds edge (%d,%d) incident to a deleted node", e.U, e.V)
		}
		m := e.Mult
		if m <= 0 {
			m = 1
		}
		edit(e.U, e.V, 0, m)
		edit(e.V, e.U, 0, m)
	}
	// A deleted node's neighbors lose their edges to it, so their rows are
	// touched too.
	for u := range deleted {
		if u < base.n {
			nbr, _ := base.Row(u)
			for _, v := range nbr {
				if _, ok := edits[int(v)]; !ok {
					edits[int(v)] = map[int]overlayEdit{}
				}
			}
		}
		edits[u] = map[int]overlayEdit{} // force an (empty) patched row
	}

	// Appended nodes always get a patched row, even if no edge wires them.
	for u := base.n; u < n; u++ {
		if _, ok := edits[u]; !ok {
			edits[u] = map[int]overlayEdit{}
		}
	}

	for u, rowEdits := range edits {
		o.patched[u] = mergeRow(base, u, rowEdits, deleted)
	}
	return o, nil
}

// overlayEdit is the multiplicity removed from and added to one edge slot.
type overlayEdit struct{ del, add int }

// mergeRow builds node u's patched row: the base row (empty for appended or
// deleted nodes) with deletions applied first (clamped at the existing
// multiplicity, matching repeated Graph.RemoveEdge calls), then additions,
// neighbors to deleted nodes dropped, ascending order restored.
func mergeRow(base *CSR, u int, rowEdits map[int]overlayEdit, deleted map[int]bool) patchedRow {
	merged := map[int]int{}
	if u < base.n && !deleted[u] {
		nbr, mult := base.Row(u)
		for k, v := range nbr {
			merged[int(v)] = int(mult[k])
		}
	}
	for v, e := range rowEdits {
		m := merged[v] - e.del
		if m < 0 {
			m = 0
		}
		merged[v] = m + e.add
	}
	var pr patchedRow
	keys := make([]int, 0, len(merged))
	for v, m := range merged {
		if m > 0 && !deleted[v] && !deleted[u] {
			keys = append(keys, v)
		}
	}
	sort.Ints(keys)
	for _, v := range keys {
		pr.neighbor = append(pr.neighbor, int32(v))
		pr.mult = append(pr.mult, int32(merged[v]))
	}
	return pr
}

// N returns the overlay's node count (base nodes plus appended ones).
func (o *Overlay) N() int { return o.n }

// Row returns the ascending distinct neighbors of u and their
// multiplicities. Untouched rows alias the base view's arrays; either way
// the slices must not be mutated.
func (o *Overlay) Row(u int) (neighbors, mults []int32) {
	if pr, ok := o.patched[u]; ok {
		return pr.neighbor, pr.mult
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
