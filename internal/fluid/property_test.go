package fluid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"beyondft/internal/graph"
	"beyondft/internal/topology"
)

// randomConnectedGraph builds a connected random graph on n nodes.
func randomConnectedGraph(n int, extraEdges int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i)) // random spanning tree
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Property: the GK primal never exceeds its own dual bound, and both bracket
// the exact LP optimum on random instances.
func TestPropertyGKPrimalDualBracketExact(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		g := randomConnectedGraph(n, n/2, rng)
		nw := NewNetwork(g, 1.0)
		var comms []Commodity
		for i := 0; i < 1+rng.Intn(3); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				comms = append(comms, Commodity{Src: u, Dst: v, Demand: 1 + rng.Float64()*3})
			}
		}
		if len(comms) == 0 {
			return true
		}
		exact, err := MaxConcurrentFlowExact(nw, comms)
		if err != nil {
			return false
		}
		res := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.05})
		return res.Throughput <= res.UpperBound+1e-9 &&
			res.Throughput <= exact+1e-6 &&
			res.UpperBound >= exact-1e-6 &&
			res.Throughput >= 0.85*exact
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding an edge never decreases throughput (monotonicity of max
// concurrent flow in capacity).
func TestPropertyThroughputMonotoneInEdges(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(4)
		g := randomConnectedGraph(n, 1, rng)
		comms := []Commodity{{Src: 0, Dst: n - 1, Demand: 2}}
		before, err := MaxConcurrentFlowExact(NewNetwork(g, 1.0), comms)
		if err != nil {
			return false
		}
		// Add a random new edge.
		for tries := 0; tries < 20; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
				break
			}
		}
		after, err := MaxConcurrentFlowExact(NewNetwork(g, 1.0), comms)
		if err != nil {
			return false
		}
		return after >= before-1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling all demands by c scales throughput by 1/c (homogeneity
// of the concurrent-flow fraction).
func TestPropertyThroughputHomogeneous(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		g := randomConnectedGraph(n, 2, rng)
		nw := NewNetwork(g, 1.0)
		comms := []Commodity{
			{Src: 0, Dst: n - 1, Demand: 1},
			{Src: 1, Dst: n - 2, Demand: 2},
		}
		if comms[1].Src == comms[1].Dst {
			return true
		}
		t1, err := MaxConcurrentFlowExact(nw, comms)
		if err != nil {
			return false
		}
		scaled := []Commodity{
			{Src: 0, Dst: n - 1, Demand: 3},
			{Src: 1, Dst: n - 2, Demand: 6},
		}
		t3, err := MaxConcurrentFlowExact(nw, scaled)
		if err != nil {
			return false
		}
		return almost(t3, t1/3, 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func almost(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// Property: for any oversubscribed fat-tree and any pod pair, the pod-to-pod
// throughput equals the oversubscription ratio exactly (Observation 1 is
// tight for the constructive TM).
func TestPropertyObservation1Tight(t *testing.T) {
	for _, core := range []int{1, 2} {
		ft := topology.NewFatTreeOversubscribed(4, core)
		v, err := ThroughputExact(ft.G, podToPod(ft, 2, 3))
		if err != nil {
			t.Fatal(err)
		}
		want := ft.OversubscriptionRatio()
		if !almost(v, want, 1e-6) {
			t.Fatalf("core=%d: throughput %v, want exactly %v", core, v, want)
		}
	}
}
