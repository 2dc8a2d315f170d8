package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"beyondft/internal/graph"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
)

func ring(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func TestExactSingleLink(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	nw := NewNetwork(g, 1.0)
	// One commodity of demand 2 over a 1-capacity link -> t = 0.5.
	got, err := MaxConcurrentFlowExact(nw, []Commodity{{Src: 0, Dst: 1, Demand: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("t = %v, want 0.5", got)
	}
}

func TestExactTwoPaths(t *testing.T) {
	// Square: 0-1-2 and 0-3-2 give two disjoint paths 0->2 of capacity 1 each.
	g := ring(4)
	nw := NewNetwork(g, 1.0)
	got, err := MaxConcurrentFlowExact(nw, []Commodity{{Src: 0, Dst: 2, Demand: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.0) > 1e-6 {
		t.Fatalf("t = %v, want 2 (two disjoint unit paths)", got)
	}
}

func TestGKMatchesExactOnSmallGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(4)
		g := ring(n)
		// Random chords.
		for i := 0; i < n/2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		nw := NewNetwork(g, 1.0)
		var comms []Commodity
		for i := 0; i < 3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			comms = append(comms, Commodity{Src: u, Dst: v, Demand: float64(1 + rng.Intn(3))})
		}
		if len(comms) == 0 {
			continue
		}
		exact, err := MaxConcurrentFlowExact(nw, comms)
		if err != nil {
			t.Fatal(err)
		}
		res := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.03})
		if res.Throughput > exact+1e-6 {
			t.Fatalf("trial %d: GK %.4f exceeds exact optimum %.4f", trial, res.Throughput, exact)
		}
		if res.Throughput < 0.9*exact {
			t.Fatalf("trial %d: GK %.4f below 90%% of exact %.4f", trial, res.Throughput, exact)
		}
		if res.UpperBound < exact-1e-6 {
			t.Fatalf("trial %d: dual bound %.4f below exact optimum %.4f", trial, res.UpperBound, exact)
		}
	}
}

// podToPod is Observation 1's TM: edge switch e of pod a sends all its
// servers' demand to edge switch e of pod b.
func podToPod(ft *topology.FatTree, a, b int) *tm.TM {
	m := &tm.TM{Name: "pod-to-pod"}
	for e := 0; e < ft.K/2; e++ {
		m.Demands = append(m.Demands, tm.Demand{Src: ft.EdgeBase[a] + e, Dst: ft.EdgeBase[b] + e, Amount: float64(ft.K / 2)})
	}
	return m
}

func TestObservation1FatTreeInflexibility(t *testing.T) {
	// Observation 1: a fat-tree oversubscribed to x of full capacity has a
	// pod-to-pod TM over 2/k of the servers capped at x per-server throughput.
	k := 4
	full := topology.NewFatTree(k)
	half := topology.NewFatTreeOversubscribed(k, 1) // 1 of k/2=2 cores: x = 0.5
	tFull, err := ThroughputExact(full.G, podToPod(full, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tFull < 1-1e-6 {
		t.Fatalf("full fat-tree pod-to-pod throughput %.4f, want 1.0", tFull)
	}
	tHalf, err := ThroughputExact(half.G, podToPod(half, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tHalf > 0.5+1e-6 {
		t.Fatalf("oversubscribed fat-tree throughput %.4f > oversubscription 0.5", tHalf)
	}
	if tHalf < 0.5-1e-6 {
		t.Fatalf("oversubscribed fat-tree throughput %.4f, want exactly 0.5", tHalf)
	}
}

func TestToyExampleMooreBound(t *testing.T) {
	// §4.1: 9 racks with 6 network ports and 6 servers each: any static
	// topology is capped at 80%.
	got := RestrictedDynamic(9, 6, 6)
	if math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("restricted bound = %v, want 0.8", got)
	}
}

func TestUnrestrictedDynamicModel(t *testing.T) {
	if got := UnrestrictedDynamic(16.0/1.5, 8); math.Abs(got-1) > 1e-9 {
		t.Fatalf("r/s>1 should cap at 1, got %v", got)
	}
	// SlimFly-style config: 25 static ports -> 25/1.5 dyn ports, 24 servers.
	got := UnrestrictedDynamic(25.0/1.5, 24)
	want := 25.0 / 1.5 / 24
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestThroughputProportionalCurve(t *testing.T) {
	if got := ThroughputProportional(0.35, 1.0); math.Abs(got-0.35) > 1e-9 {
		t.Fatalf("TP(0.35, 1) = %v", got)
	}
	if got := ThroughputProportional(0.35, 0.35); math.Abs(got-1) > 1e-9 {
		t.Fatalf("TP at x=alpha should hit 1, got %v", got)
	}
	if got := ThroughputProportional(0.35, 0.1); got != 1 {
		t.Fatalf("TP clamps at 1, got %v", got)
	}
}

func TestFatTreeCurve(t *testing.T) {
	k := 64
	alpha := 0.5
	if got := FatTreeCurve(alpha, k, 0.5); got != alpha {
		t.Fatalf("above beta the fat-tree stays at alpha, got %v", got)
	}
	beta := 2.0 / float64(k)
	if got := FatTreeCurve(alpha, k, beta/2); math.Abs(got-1.0) > 1e-9 && got < alpha {
		t.Fatalf("below beta throughput rises, got %v", got)
	}
}

// Theorem 2.1 property check: over permutation TMs, throughput cannot rise
// more than proportionally as the active fraction shrinks. We verify the
// contrapositive consequence on small Jellyfish graphs: t(x)·x <= t(1)+tol
// does NOT hold in general (only the cap alpha/x does), so instead we check
// the direct statement: t(x) <= t_worst(1)/x within tolerance, where
// t_worst(1) is the minimum over sampled full permutations.
func TestTheorem21Proportionality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	topo := topology.NewJellyfish(10, 4, 3, rng)
	// Worst sampled full-size permutation throughput.
	worstFull := math.Inf(1)
	for i := 0; i < 6; i++ {
		m := tm.RandomPermutation(topo.ToRs(), func(int) int { return 3 }, rng)
		v, err := ThroughputExact(topo.G, m)
		if err != nil {
			t.Fatal(err)
		}
		if v < worstFull {
			worstFull = v
		}
	}
	// Sampled sub-permutations on x=0.4 of the racks.
	for i := 0; i < 6; i++ {
		racks := topo.ToRs()
		rng.Shuffle(len(racks), func(a, b int) { racks[a], racks[b] = racks[b], racks[a] })
		sub := racks[:4]
		m := tm.RandomPermutation(sub, func(int) int { return 3 }, rng)
		v, err := ThroughputExact(topo.G, m)
		if err != nil {
			t.Fatal(err)
		}
		// v is capped at 1 by the hose model; Theorem 2.1 bounds the
		// uncapped value by worstFull/x. The capped check:
		bound := math.Min(1, worstFull/0.4+1e-6)
		if v > bound+0.05 {
			t.Fatalf("sub-permutation throughput %.4f exceeds proportional bound %.4f", v, bound)
		}
	}
}

func TestCommoditiesMergesDuplicates(t *testing.T) {
	m := &tm.TM{Demands: []tm.Demand{
		{Src: 0, Dst: 1, Amount: 1},
		{Src: 0, Dst: 1, Amount: 2},
		{Src: 1, Dst: 0, Amount: 1},
		{Src: 2, Dst: 2, Amount: 5}, // dropped
		{Src: 3, Dst: 4, Amount: 0}, // dropped
	}}
	cs := Commodities(m)
	if len(cs) != 2 {
		t.Fatalf("got %d commodities, want 2", len(cs))
	}
	if cs[0].Demand != 3 {
		t.Fatalf("merged demand = %v, want 3", cs[0].Demand)
	}
}

func TestDisconnectedGraphZeroThroughput(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	nw := NewNetwork(g, 1.0)
	res := MaxConcurrentFlow(nw, []Commodity{{Src: 0, Dst: 2, Demand: 1}}, GKOptions{})
	if res.Throughput != 0 {
		t.Fatalf("throughput = %v, want 0 for disconnected pair", res.Throughput)
	}
}

// A Workspace's network, commodities and solves must equal the package
// functions' after any earlier use, larger or smaller.
func TestWorkspaceMatchesPackageFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var ws Workspace
	for _, n := range []int{20, 54, 12, 54} {
		tp := topology.NewJellyfish(n, 5, 3, rng)
		nw, want := ws.Network(tp.G.Frozen(), 2.5), NewNetwork(tp.G, 2.5)
		if !reflect.DeepEqual(nw, want) {
			t.Fatalf("n=%d: workspace network differs from NewNetwork", n)
		}
		m := tm.AllToAll(tp.ToRs(), func(int) int { return 3 })
		m.Demands = append(m.Demands, m.Demands[0], tm.Demand{Src: 1, Dst: 1, Amount: 9}) // a duplicate and a self-loop
		comms := ws.Commodities(m)
		if want := Commodities(m); !reflect.DeepEqual(comms, want) {
			t.Fatalf("n=%d: workspace commodities differ", n)
		}
		// The solver on lent arrays, at one worker and at several, against
		// the solver on its own.
		for _, workers := range []int{1, 3} {
			opt := GKOptions{Epsilon: 0.2, Workers: workers, ExportDuals: true}
			want := MaxConcurrentFlow(nw, comms, opt)
			opt.Workspace = &ws
			if got := MaxConcurrentFlow(nw, comms, opt); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d workers=%d: solve on a workspace %+v, without %+v", n, workers, got.Throughput, want.Throughput)
			}
		}
	}
}

// TestGKClosedFormHypercubes holds GK to truth no golden encodes, on the
// tie-heavy instances where the goal-directed routing resolves and falls
// back most: the hypercube Q_d, the folded hypercube FQ_d and the complete
// graph K_{d+1} (NewXpander(d, 1, …)) are arc-transitive, so under a
// traffic matrix that their automorphisms fix the path-length bound is
// exact (ROADMAP item 2). With s servers per switch, under all-to-all Q_d
// carries (2^d−1)/(s·2^(d−1)), FQ_d carries
// (d+1)(2^d−1)/(s·Σ_w C(d,w)·min(w, d+1−w)) and K_{d+1}, whose every pair
// has its own link, d/s (s > d, so the server cap never binds); under
// longest matching, which pairs every switch of Q_d with its antipode, Q_d
// carries exactly 1/s. The dual bound must equal the closed form to
// rounding and the primal must be within ε of it, at ε 0.25 and 0.08.
func TestGKClosedFormHypercubes(t *testing.T) {
	const s = 4
	servers := func(int) int { return s }
	type instance struct {
		name   string
		g      *graph.Graph
		comms  []Commodity
		closed float64
	}
	var cases []instance
	for d := 3; d <= 7; d++ {
		lh := topology.NewLonghop(d, d, s)
		n := float64(int(1)<<d - 1)
		cases = append(cases, instance{fmt.Sprintf("Q_%d", d), lh.G, Commodities(tm.AllToAll(lh.ToRs(), servers)), n / (s * float64(int(1)<<(d-1)))})
	}
	for d := 4; d <= 7; d++ {
		hops, binom := 0.0, 1.0 // Σ_w C(d,w)·min(w, d+1−w), C(d,w) built up in w
		for w := 1; w <= d; w++ {
			binom = binom * float64(d-w+1) / float64(w)
			hops += binom * float64(min(w, d+1-w))
		}
		lh := topology.NewLonghop(d, d+1, s)
		closed := float64(d+1) * float64(int(1)<<d-1) / (s * hops)
		cases = append(cases, instance{fmt.Sprintf("FQ_%d", d), lh.G, Commodities(tm.AllToAll(lh.ToRs(), servers)), closed})
	}
	for _, d := range []int{3, 4, 6, 8} {
		ks := d + 1
		k := topology.NewXpander(d, 1, ks, rand.New(rand.NewSource(int64(d))))
		comms := Commodities(tm.AllToAll(k.ToRs(), func(int) int { return ks }))
		cases = append(cases, instance{fmt.Sprintf("K_%d", d+1), k.G, comms, float64(d) / float64(ks)})
	}
	for d := 3; d <= 7; d++ {
		lh := topology.NewLonghop(d, d, s)
		comms := Commodities(tm.LongestMatching(lh.G, lh.ToRs(), servers))
		if len(comms) != 1<<d {
			t.Fatalf("Q_%d longest matching: %d commodities, want %d", d, len(comms), 1<<d)
		}
		for _, c := range comms {
			if c.Src^c.Dst != 1<<d-1 {
				t.Fatalf("Q_%d longest matching pairs %d with %d, not its antipode", d, c.Src, c.Dst)
			}
		}
		cases = append(cases, instance{fmt.Sprintf("Q_%d longest matching", d), lh.G, comms, 1.0 / s})
	}
	worst, lowest := 0.0, math.Inf(1)
	for _, c := range cases {
		nw := NewNetwork(c.g, 1.0)
		for _, eps := range []float64{0.25, 0.08} {
			var tel GKTelemetry
			res := MaxConcurrentFlow(nw, c.comms, GKOptions{Epsilon: eps, Observer: &tel})
			if rel := res.UpperBound/c.closed - 1; math.Abs(rel) > 1e-9 {
				t.Errorf("%s ε=%g: dual bound %.12g, closed form %.12g (rel %.2g)", c.name, eps, res.UpperBound, c.closed, rel)
			}
			if res.Throughput < (1-eps)*c.closed {
				t.Errorf("%s ε=%g: primal %.6g below (1−ε)·%.6g", c.name, eps, res.Throughput, c.closed)
			}
			worst, lowest = max(worst, math.Abs(res.UpperBound/c.closed-1)), min(lowest, res.Throughput/c.closed)
			t.Logf("%s ε=%g: %d phases, %.1f%% of %d routing steps fell back", c.name, eps, res.Phases, 100*float64(res.Fallbacks)/float64(tel.Iterations), tel.Iterations)
		}
	}
	t.Logf("worst |dual/closed − 1| %.2g, lowest primal/closed %.4f", worst, lowest)
}
