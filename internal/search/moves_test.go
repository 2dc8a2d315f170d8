package search

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"beyondft/internal/topology"
)

// degreeSequence returns the sorted network-degree multiset.
func degreeSequence(t *topology.Topology) []int {
	ds := make([]int, t.G.N())
	for i := range ds {
		ds[i] = t.G.Degree(i)
	}
	sort.Ints(ds)
	return ds
}

// assertSimple fails if any edge has multiplicity > 1 or is a self-loop.
func assertSimple(t *testing.T, topo *topology.Topology) {
	t.Helper()
	for _, e := range topo.G.Edges() {
		if e.U == e.V {
			t.Fatalf("self-loop at %d", e.U)
		}
		if e.Mult > 1 {
			t.Fatalf("parallel edge (%d,%d) x%d", e.U, e.V, e.Mult)
		}
	}
}

// TestSwapPropertySweep is the rewiring-move property sweep over many seeds:
// every applied double-edge swap preserves the degree sequence and
// simplicity, and ApplyChecked either keeps the graph connected or rejects
// the move leaving the topology bit-identical.
func TestSwapPropertySweep(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		jf := topology.NewJellyfish(10+int(seed%3)*2, 3, 2, rng)
		wantDeg := degreeSequence(jf)
		wantPorts := jf.TotalPortsUsed()

		applied := 0
		for i := 0; i < 50; i++ {
			before := jf.G.Edges()
			m, ok := ProposeSwap(jf, rng)
			if !ok {
				continue
			}
			err := ApplyChecked(jf, m)
			if errors.Is(err, ErrDisconnects) {
				if !reflect.DeepEqual(jf.G.Edges(), before) {
					t.Fatalf("seed %d: rejected swap %s mutated the graph", seed, m)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d: apply %s: %v", seed, m, err)
			}
			applied++
			if !jf.G.Connected() {
				t.Fatalf("seed %d: ApplyChecked let %s disconnect the graph", seed, m)
			}
			if got := degreeSequence(jf); !reflect.DeepEqual(got, wantDeg) {
				t.Fatalf("seed %d: swap %s changed degree sequence: %v != %v", seed, m, got, wantDeg)
			}
			assertSimple(t, jf)
			if jf.TotalPortsUsed() != wantPorts {
				t.Fatalf("seed %d: swap %s changed port spend", seed, m)
			}
		}
		if applied == 0 {
			t.Fatalf("seed %d: no swap applied in 50 proposals", seed)
		}
		if err := jf.Validate(); err != nil {
			t.Fatalf("seed %d: topology invalid after sweep: %v", seed, err)
		}
	}
}

// TestRebalancePropertySweep checks the non-regular move family: port spend
// is conserved, port budgets are respected, the moved endpoint really gained
// a link, and rejected moves leave the topology untouched.
func TestRebalancePropertySweep(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// 10 switches x 8 ports hosting 33 servers: uneven attachment, so
		// degrees differ and some switches keep free ports.
		topo := topology.NewJellyfishForServers(10, 8, 33, rng)
		wantPorts := topo.TotalPortsUsed()
		wantEdges := len(topo.G.Edges())

		applied := 0
		for i := 0; i < 50; i++ {
			before := topo.G.Edges()
			m, ok := rebalance(topo, rng)
			if !ok {
				continue
			}
			err := ApplyChecked(topo, m)
			if errors.Is(err, ErrDisconnects) {
				if !reflect.DeepEqual(topo.G.Edges(), before) {
					t.Fatalf("seed %d: rejected rebalance %s mutated the graph", seed, m)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d: apply %s: %v", seed, m, err)
			}
			applied++
			if !topo.G.HasEdge(m.A, m.C) || topo.G.HasEdge(m.A, m.B) {
				t.Fatalf("seed %d: rebalance %s did not re-home the edge", seed, m)
			}
			if got := len(topo.G.Edges()); got != wantEdges {
				t.Fatalf("seed %d: rebalance changed edge count %d -> %d", seed, wantEdges, got)
			}
			assertSimple(t, topo)
			for v := 0; v < topo.G.N(); v++ {
				if topo.G.Degree(v)+topo.Servers[v] > topo.SwitchPorts {
					t.Fatalf("seed %d: switch %d over port budget after %s", seed, v, m)
				}
			}
		}
		if applied == 0 {
			t.Fatalf("seed %d: no rebalance applied in 50 proposals", seed)
		}
		if topo.TotalPortsUsed() != wantPorts {
			t.Fatalf("seed %d: port spend changed", seed)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("seed %d: topology invalid after sweep: %v", seed, err)
		}
	}
}

// TestApplyUndoRoundTrip pins the exact-inverse contract: apply-then-undo
// restores the identical canonical edge list, for both rewiring families.
func TestApplyUndoRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	regular := topology.NewJellyfish(12, 4, 2, rng)
	uneven := topology.NewJellyfishForServers(10, 8, 33, rng)

	cases := []struct {
		name    string
		topo    *topology.Topology
		propose func(*topology.Topology, *rand.Rand) (Move, bool)
	}{
		{"swap", regular, ProposeSwap},
		{"rebalance", uneven, rebalance},
	}
	for _, tc := range cases {
		roundTrips := 0
		for i := 0; i < 30; i++ {
			want := tc.topo.G.Edges()
			m, ok := tc.propose(tc.topo, rng)
			if !ok {
				continue
			}
			if err := Apply(tc.topo, m); err != nil {
				t.Fatalf("%s: apply: %v", tc.name, err)
			}
			if reflect.DeepEqual(tc.topo.G.Edges(), want) {
				t.Fatalf("%s: move %s was a no-op", tc.name, m)
			}
			if err := Undo(tc.topo, m); err != nil {
				t.Fatalf("%s: undo: %v", tc.name, err)
			}
			if !reflect.DeepEqual(tc.topo.G.Edges(), want) {
				t.Fatalf("%s: undo of %s did not restore the edge list", tc.name, m)
			}
			roundTrips++
		}
		if roundTrips == 0 {
			t.Fatalf("%s: no move proposed in 30 attempts", tc.name)
		}
	}
}

// TestMoveInvalidRejects checks precondition enforcement: moves whose edges
// do not exist (or whose targets already exist) are rejected without
// mutation, and param moves are not applicable to Apply/Undo.
func TestMoveInvalidRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	jf := topology.NewJellyfish(8, 3, 1, rng)
	want := jf.G.Edges()

	bad := []Move{
		{Kind: "swap", A: 0, B: 0, C: 1, D: 2},
		{Kind: "swap", A: 0, B: 1, C: 0, D: 2},
		{Kind: "rebalance", A: 0, B: 1, C: 0},
	}
	// A swap naming a non-edge.
	for u := 0; u < jf.G.N(); u++ {
		for v := u + 1; v < jf.G.N(); v++ {
			if !jf.G.HasEdge(u, v) {
				bad = append(bad, Move{Kind: "swap", A: u, B: v, C: (v + 1) % jf.G.N(), D: (v + 2) % jf.G.N()})
				u = jf.G.N() // break both loops
				break
			}
		}
	}
	for _, m := range bad {
		if err := Apply(jf, m); !errors.Is(err, ErrMoveInvalid) {
			t.Errorf("Apply(%s) = %v, want ErrMoveInvalid", m, err)
		}
	}
	if err := Apply(jf, Move{Kind: "param", Param: "degree", Value: 4}); err == nil {
		t.Error("Apply accepted a param move")
	}
	if err := Undo(jf, Move{Kind: "param"}); err == nil {
		t.Error("Undo accepted a param move")
	}
	if !reflect.DeepEqual(jf.G.Edges(), want) {
		t.Fatal("rejected moves mutated the graph")
	}
}

// TestProposalStreamDeterministic pins that the proposal layer is a pure
// function of the RNG stream: identical seeds yield identical move
// sequences, the property the search's worker-count independence rests on.
func TestProposalStreamDeterministic(t *testing.T) {
	draw := func() []Move {
		rng := rand.New(rand.NewSource(11))
		jf := topology.NewJellyfish(12, 3, 2, rand.New(rand.NewSource(1)))
		var ms []Move
		for i := 0; i < 40; i++ {
			if m, ok := ProposeSwap(jf, rng); ok {
				ms = append(ms, m)
				if ApplyChecked(jf, m) == nil {
					continue
				}
			}
		}
		return ms
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different move sequences")
	}
	if len(a) == 0 {
		t.Fatal("no moves drawn")
	}
}

// rebalance draws a rebalance move over t's current edge list.
func rebalance(t *topology.Topology, rng *rand.Rand) (Move, bool) {
	return proposeRebalance(t, t.G.Edges(), rng)
}
