package search

import (
	"math/rand"
	"testing"

	"beyondft/internal/graph"
	"beyondft/internal/topology"
)

// ringLattice builds the circulant C(n; 1..k): every node linked to its k
// nearest neighbors on each side — 2k-regular, locally clustered, long
// paths. The canonical bad expander sharing Jellyfish's degree.
func ringLattice(n, k, serversPerSwitch int) *topology.Topology {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for d := 1; d <= k; d++ {
			g.AddEdge(i, (i+d)%n)
		}
	}
	servers := make([]int, n)
	for i := range servers {
		servers[i] = serversPerSwitch
	}
	return &topology.Topology{
		Name: "ring-lattice", G: g, Servers: servers, SwitchPorts: 2*k + serversPerSwitch,
	}
}

// nearBisected joins two independent Jellyfish halves by a single edge: the
// same equipment as one big Jellyfish, but with a one-link bisection.
func nearBisected(n, r, serversPerSwitch int, rng *rand.Rand) *topology.Topology {
	half := n / 2
	a := topology.NewJellyfish(half, r, serversPerSwitch, rng)
	b := topology.NewJellyfish(half, r, serversPerSwitch, rng)
	g := graph.New(n)
	for _, e := range a.G.Edges() {
		g.AddEdge(e.U, e.V)
	}
	for _, e := range b.G.Edges() {
		g.AddEdge(e.U+half, e.V+half)
	}
	// The lone bridge: drop one edge per half to free ports, then link the
	// freed endpoints across.
	ea := a.G.Edges()[0]
	eb := b.G.Edges()[0]
	g.RemoveEdge(ea.U, ea.V)
	g.RemoveEdge(eb.U+half, eb.V+half)
	g.AddEdge(ea.U, eb.U+half)
	g.AddEdge(ea.V, eb.V+half)
	servers := make([]int, n)
	for i := range servers {
		servers[i] = serversPerSwitch
	}
	return &topology.Topology{
		Name: "near-bisected", G: g, Servers: servers, SwitchPorts: r + serversPerSwitch,
	}
}

// TestProxyRanksKnownFamily pins the candidate filter's ranking on a family
// with a known throughput order: a Jellyfish expander must out-score both
// the ring lattice (same degree, poor expansion, long paths) and an
// intentionally near-bisected two-cluster variant; any connected graph must
// out-score a disconnected one.
func TestProxyRanksKnownFamily(t *testing.T) {
	const n, r, s = 20, 4, 2
	jf := topology.NewJellyfish(n, r, s, rand.New(rand.NewSource(1)))
	ring := ringLattice(n, r/2, s)
	bisected := nearBisected(n, r, s, rand.New(rand.NewSource(2)))

	pj, pr, pb := Proxy(jf), Proxy(ring), Proxy(bisected)
	if pj <= pr {
		t.Errorf("Proxy(jellyfish)=%v <= Proxy(ring lattice)=%v", pj, pr)
	}
	if pj <= pb {
		t.Errorf("Proxy(jellyfish)=%v <= Proxy(near-bisected)=%v", pj, pb)
	}

	// Deterministic: the proxy is a pure function of the graph.
	if Proxy(jf) != pj {
		t.Error("Proxy is not deterministic")
	}

	// Disconnected scores below every connected graph.
	disc := graph.New(4)
	disc.AddEdge(0, 1)
	disc.AddEdge(2, 3)
	dt := &topology.Topology{Name: "disc", G: disc, Servers: []int{1, 1, 1, 1}, SwitchPorts: 3}
	if got := Proxy(dt); got != -1 {
		t.Errorf("Proxy(disconnected) = %v, want -1", got)
	}
}

// The search scores every candidate of a run on a few generators it keeps;
// the score must be Proxy's whatever the generator was last used for.
func TestProxyOnAKeptGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	kept := rand.New(rand.NewSource(99))
	for _, tp := range []*topology.Topology{
		topology.NewJellyfish(20, 5, 3, rng),
		ringLattice(24, 3, 2),
		topology.NewJellyfish(54, 9, 6, rng),
		nearBisected(20, 4, 2, rng),
	} {
		if got, want := proxy(tp, kept), Proxy(tp); got != want {
			t.Errorf("%s: %v on a kept generator, Proxy %v", tp.Name, got, want)
		}
	}
}
