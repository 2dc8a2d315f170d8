package graph

import (
	"math/rand"
	"testing"
)

// applyDeltaToGraph is the overlay oracle: replay the delta on a mutable
// Graph rebuilt with room for appended nodes — deletions first (clamped,
// like RemoveEdge), then additions, then node masking — and freeze it.
func applyDeltaToGraph(g *Graph, d Delta) *Graph {
	out := New(g.N() + d.AddNodes)
	for _, e := range g.Edges() {
		out.AddEdgeMulti(e.U, e.V, e.Mult)
	}
	for _, e := range d.DelEdges {
		m := e.Mult
		if m <= 0 {
			m = 1
		}
		for i := 0; i < m; i++ {
			out.RemoveEdge(e.U, e.V)
		}
	}
	for _, e := range d.AddEdges {
		m := e.Mult
		if m <= 0 {
			m = 1
		}
		out.AddEdgeMulti(e.U, e.V, m)
	}
	for _, u := range d.DelNodes {
		for _, v := range out.Neighbors(u) {
			for out.RemoveEdge(u, v) {
			}
		}
	}
	return out
}

// requireViewsEqual asserts the overlay presents exactly the same rows as
// want: the oracle's rebuilt Frozen() view, or another overlay.
func requireViewsEqual(t *testing.T, o *Overlay, want View) {
	t.Helper()
	if o.N() != want.N() {
		t.Fatalf("overlay N=%d, rebuilt N=%d", o.N(), want.N())
	}
	for u := 0; u < want.N(); u++ {
		gn, gm := o.Row(u)
		wn, wm := want.Row(u)
		if len(gn) != len(wn) {
			t.Fatalf("node %d: overlay row %v (mult %v), rebuilt %v (mult %v)", u, gn, gm, wn, wm)
		}
		for k := range gn {
			if gn[k] != wn[k] || gm[k] != wm[k] {
				t.Fatalf("node %d slot %d: overlay (%d×%d), rebuilt (%d×%d)",
					u, k, gn[k], gm[k], wn[k], wm[k])
			}
		}
	}
}

func TestOverlayEdgeDeletion(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdgeMulti(1, 2, 3)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)

	// Remove one unit of the trunked link: multiplicity drops to 2.
	o, err := NewOverlay(g.Frozen(), Delta{DelEdges: []Edge{{U: 1, V: 2, Mult: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	nbr, mult := o.Row(1)
	if len(nbr) != 2 || nbr[0] != 0 || nbr[1] != 2 || mult[1] != 2 {
		t.Fatalf("row 1 after one-unit delete: %v ×%v", nbr, mult)
	}
	// Untouched rows alias the base.
	bn, _ := g.Frozen().Row(3)
	on, _ := o.Row(3)
	if &bn[0] != &on[0] {
		t.Fatalf("untouched row 3 was copied, want aliased")
	}
	// Over-deletion clamps at zero.
	o2, err := NewOverlay(g.Frozen(), Delta{DelEdges: []Edge{{U: 1, V: 2, Mult: 99}}})
	if err != nil {
		t.Fatal(err)
	}
	nbr, _ = o2.Row(1)
	if len(nbr) != 1 || nbr[0] != 0 {
		t.Fatalf("row 1 after over-delete: %v", nbr)
	}
}

func TestOverlayNodeMaskAndAppend(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)

	o, err := NewOverlay(g.Frozen(), Delta{
		DelNodes: []int{2},
		AddNodes: 1,
		AddEdges: []Edge{{U: 4, V: 0}, {U: 4, V: 3, Mult: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.N() != 5 {
		t.Fatalf("N=%d, want 5", o.N())
	}
	if nbr, _ := o.Row(2); len(nbr) != 0 {
		t.Fatalf("masked node 2 still has neighbors %v", nbr)
	}
	if nbr, _ := o.Row(1); len(nbr) != 1 || nbr[0] != 0 {
		t.Fatalf("node 1 should have lost its edge to 2: %v", nbr)
	}
	nbr, mult := o.Row(4)
	if len(nbr) != 2 || nbr[0] != 0 || nbr[1] != 3 || mult[1] != 2 {
		t.Fatalf("appended node row: %v ×%v", nbr, mult)
	}
	requireViewsEqual(t, o, applyDeltaToGraph(g, Delta{
		DelNodes: []int{2},
		AddNodes: 1,
		AddEdges: []Edge{{U: 4, V: 0}, {U: 4, V: 3, Mult: 2}},
	}).Frozen())
}

func TestOverlayDeleteThenAddSameEdge(t *testing.T) {
	// Deletions clamp before additions apply: on a non-edge, del 1 + add 1
	// must yield multiplicity 1 (not 0), matching sequential Graph replay.
	g := New(3)
	g.AddEdge(0, 1)
	d := Delta{
		DelEdges: []Edge{{U: 1, V: 2}},
		AddEdges: []Edge{{U: 1, V: 2}},
	}
	o, err := NewOverlay(g.Frozen(), d)
	if err != nil {
		t.Fatal(err)
	}
	requireViewsEqual(t, o, applyDeltaToGraph(g, d).Frozen())
	nbr, _ := o.Row(2)
	if len(nbr) != 1 || nbr[0] != 1 {
		t.Fatalf("row 2: %v, want [1]", nbr)
	}
}

func TestOverlayValidation(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	base := g.Frozen()
	cases := []Delta{
		{DelEdges: []Edge{{U: 0, V: 5}}},                     // out of range
		{AddEdges: []Edge{{U: 1, V: 1}}},                     // self-loop
		{AddEdges: []Edge{{U: -1, V: 0}}},                    // negative node
		{AddNodes: -1},                                       // negative append
		{DelNodes: []int{7}},                                 // node out of range
		{DelNodes: []int{0}, AddEdges: []Edge{{U: 0, V: 1}}}, // add to deleted
	}
	for i, d := range cases {
		if _, err := NewOverlay(base, d); err == nil {
			t.Errorf("case %d: delta %+v accepted, want error", i, d)
		}
	}
	if _, err := NewOverlay(nil, Delta{}); err == nil {
		t.Errorf("nil base accepted")
	}
}

func TestOverlayConnectivityAndMaterialize(t *testing.T) {
	// A 4-cycle stays connected after one edge loss, disconnects after a
	// node mask.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	if !ViewConnected(g.Frozen()) {
		t.Fatal("cycle should be connected")
	}
	o, err := NewOverlay(g.Frozen(), Delta{DelEdges: []Edge{{U: 1, V: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if !ViewConnected(o) {
		t.Fatal("cycle minus one edge should stay connected")
	}
	o2, err := NewOverlay(g.Frozen(), Delta{DelNodes: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if ViewConnected(o2) {
		t.Fatal("masked node should disconnect the view")
	}
	dist := ViewBFS(o2, 0)
	if dist[1] != -1 || dist[0] != 0 {
		t.Fatalf("ViewBFS over masked view: %v", dist)
	}
}

// FuzzDeltaOverlay drives random deltas (edge deletions/additions, node
// masks, appended nodes) over random base graphs and requires the overlay
// view to match a from-scratch Frozen() rebuild exactly — the invariant the
// what-if engine's patched arc layouts rest on.
func FuzzDeltaOverlay(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(4), uint8(4), uint8(1), uint8(1))
	f.Add(int64(7), uint8(3), uint8(0), uint8(9), uint8(2), uint8(0))
	f.Add(int64(42), uint8(17), uint8(30), uint8(0), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, delsRaw, addsRaw, maskRaw, appendRaw uint8) {
		n := 2 + int(nRaw%18)
		dels := int(delsRaw % 32)
		adds := int(addsRaw % 32)
		masks := int(maskRaw % 3)
		appended := int(appendRaw % 3)
		rng := rand.New(rand.NewSource(seed))

		g := New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(v, rng.Intn(v))
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdgeMulti(u, v, 1+rng.Intn(3))
			}
		}

		var d Delta
		d.AddNodes = appended
		total := n + appended
		edges := g.Edges()
		for i := 0; i < dels && len(edges) > 0; i++ {
			e := edges[rng.Intn(len(edges))]
			d.DelEdges = append(d.DelEdges, Edge{U: e.U, V: e.V, Mult: 1 + rng.Intn(3)})
		}
		deleted := map[int]bool{}
		for i := 0; i < masks; i++ {
			u := rng.Intn(n)
			d.DelNodes = append(d.DelNodes, u)
			deleted[u] = true
		}
		for i := 0; i < adds; i++ {
			u, v := rng.Intn(total), rng.Intn(total)
			if u == v || deleted[u] || deleted[v] {
				continue
			}
			d.AddEdges = append(d.AddEdges, Edge{U: u, V: v, Mult: 1 + rng.Intn(2)})
		}

		o, err := NewOverlay(g.Frozen(), d)
		if err != nil {
			t.Fatalf("valid delta rejected: %v", err)
		}
		want := applyDeltaToGraph(g, d).Frozen()
		requireViewsEqual(t, o, want)
		if ViewConnected(o) != want.Connected() {
			t.Fatalf("ViewConnected=%v, rebuilt Connected=%v", ViewConnected(o), want.Connected())
		}

		// The same delta Reset into one reused Overlay, after a larger
		// delta, a smaller one and a rejected one: nothing of theirs may
		// show through.
		larger := Delta{DelEdges: edges, AddNodes: appended + 2}
		for u := n; u < n+appended+2; u++ {
			for v := 0; v < n; v++ {
				larger.AddEdges = append(larger.AddEdges, Edge{U: u, V: v, Mult: 3})
			}
		}
		smaller := Delta{DelEdges: edges[:1]}
		rejected := Delta{DelNodes: []int{0}, DelEdges: edges, AddNodes: 1, AddEdges: []Edge{{U: n, V: 1}, {U: 0, V: 1}}}
		var reused Overlay
		for _, prior := range []Delta{larger, smaller, rejected} {
			err := reused.Reset(g.Frozen(), prior)
			if (err != nil) != (prior.DelNodes != nil) {
				t.Fatalf("prior delta %+v: Reset error %v", prior, err)
			}
		}
		if err := reused.Reset(g.Frozen(), d); err != nil {
			t.Fatalf("valid delta rejected by a reused overlay: %v", err)
		}
		requireViewsEqual(t, &reused, want)
		requireViewsEqual(t, &reused, o)
	})
}
