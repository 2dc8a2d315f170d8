package topology

import (
	"math"
	"math/rand"
	"testing"
)

func TestFatTreeCounts(t *testing.T) {
	// The paper's baseline: k=16 -> 320 switches, 1024 servers.
	cases := []struct {
		k, switches, servers int
	}{
		{4, 20, 16},
		{8, 80, 128},
		{16, 320, 1024},
		{24, 720, 3456},
	}
	for _, c := range cases {
		ft := NewFatTree(c.k)
		if ft.NumSwitches() != c.switches {
			t.Errorf("k=%d: switches = %d, want %d", c.k, ft.NumSwitches(), c.switches)
		}
		if ft.TotalServers() != c.servers {
			t.Errorf("k=%d: servers = %d, want %d", c.k, ft.TotalServers(), c.servers)
		}
		if err := ft.Validate(); err != nil {
			t.Errorf("k=%d: %v", c.k, err)
		}
	}
}

func TestFatTreePortBudget(t *testing.T) {
	ft := NewFatTree(8)
	for sw := 0; sw < ft.NumSwitches(); sw++ {
		used := ft.G.Degree(sw) + ft.Servers[sw]
		if used != 8 {
			t.Fatalf("switch %d uses %d ports, want exactly k=8 in a full fat-tree", sw, used)
		}
	}
}

func TestFatTreeStructure(t *testing.T) {
	ft := NewFatTree(8)
	// Every edge switch reaches every agg in its pod.
	for p := 0; p < ft.K; p++ {
		for e := 0; e < ft.K/2; e++ {
			edge := ft.EdgeBase[p] + e
			for a := 0; a < ft.K/2; a++ {
				if !ft.G.HasEdge(edge, ft.AggBase[p]+a) {
					t.Fatalf("edge %d not connected to agg %d", edge, ft.AggBase[p]+a)
				}
			}
		}
	}
	// Diameter of a 3-layer fat-tree is 6 (server-to-server minus hosts: 4
	// switch hops edge-agg-core-agg-edge).
	if d := ft.G.PathStats().Diameter; d != 4 {
		t.Fatalf("switch-level diameter = %d, want 4", d)
	}
}

func TestFatTreeOversubscription(t *testing.T) {
	ft := NewFatTreeOversubscribed(8, 2) // half of k/2=4
	if got := ft.OversubscriptionRatio(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("ratio = %v, want 0.5", got)
	}
	if err := ft.Validate(); err != nil {
		t.Fatal(err)
	}
	full := NewFatTree(8)
	if ft.TotalServers() != full.TotalServers() {
		t.Fatalf("oversubscription must not change server count")
	}
	if ft.CostFraction() >= 1 {
		t.Fatalf("oversubscribed fat-tree should be cheaper, cost fraction %v", ft.CostFraction())
	}
}

func TestFatTreeAtCost(t *testing.T) {
	ft := NewFatTreeAtCost(16, 0.77)
	if cf := ft.CostFraction(); cf > 0.77+1e-9 {
		t.Fatalf("cost fraction %v exceeds 0.77", cf)
	}
	if ft.CorePerColumn < 1 {
		t.Fatalf("degenerate fat-tree")
	}
}

func TestJellyfishRegularAndConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	jf := NewJellyfish(54, 9, 6, rng)
	d, ok := jf.G.IsRegular()
	if !ok || d != 9 {
		t.Fatalf("degree = %d regular=%v, want 9-regular", d, ok)
	}
	if !jf.G.Connected() {
		t.Fatalf("disconnected jellyfish")
	}
	if err := jf.Validate(); err != nil {
		t.Fatal(err)
	}
	if jf.TotalServers() != 54*6 {
		t.Fatalf("servers = %d, want 324", jf.TotalServers())
	}
}

func TestJellyfishDifferentSeedsDiffer(t *testing.T) {
	a := NewJellyfish(30, 5, 2, rand.New(rand.NewSource(1)))
	b := NewJellyfish(30, 5, 2, rand.New(rand.NewSource(2)))
	same := true
	for _, e := range a.G.Edges() {
		if !b.G.HasEdge(e.U, e.V) {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("two seeds produced identical random graphs")
	}
}

func TestJellyfishForServersUneven(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	jf := NewJellyfishForServers(40, 8, 128, rng) // 3.2 servers per switch
	if jf.TotalServers() != 128 {
		t.Fatalf("servers = %d, want 128", jf.TotalServers())
	}
	if err := jf.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, s := range jf.Servers {
		if s < 3 || s > 4 {
			t.Fatalf("switch %d has %d servers; want 3 or 4", i, s)
		}
	}
}

func TestJellyfishSameEquipment(t *testing.T) {
	sf := NewSlimFly(5, 6)
	jf := NewJellyfishSameEquipment(&sf.Topology, rand.New(rand.NewSource(4)))
	if jf.NumSwitches() != sf.NumSwitches() {
		t.Fatalf("switch counts differ")
	}
	if jf.TotalServers() != sf.TotalServers() {
		t.Fatalf("server counts differ")
	}
	if jf.SwitchPorts != sf.SwitchPorts {
		t.Fatalf("port counts differ")
	}
}

func TestXpanderCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// The §6.4 configuration: d=11, lift=18 -> 216 switches, 1080 servers.
	x := NewXpander(11, 18, 5, rng)
	if x.NumSwitches() != 216 {
		t.Fatalf("switches = %d, want 216", x.NumSwitches())
	}
	if x.TotalServers() != 1080 {
		t.Fatalf("servers = %d, want 1080", x.TotalServers())
	}
	d, ok := x.G.IsRegular()
	if !ok || d != 11 {
		t.Fatalf("network degree = %d (regular=%v), want 11", d, ok)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestXpanderMetaNodeStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := NewXpander(5, 9, 3, rng)
	// No switch connects to its own meta-node; exactly one link per switch
	// into every other meta-node.
	for sw := 0; sw < x.NumSwitches(); sw++ {
		counts := make([]int, x.D+1)
		nbrs, mults := x.G.Frozen().Row(sw)
		for k, nb := range nbrs {
			counts[int(nb)/x.Lift] += int(mults[k])
		}
		for m, cnt := range counts {
			if m == sw/x.Lift {
				if cnt != 0 {
					t.Fatalf("switch %d links within its meta-node", sw)
				}
			} else if cnt != 1 {
				t.Fatalf("switch %d has %d links to meta-node %d, want 1", sw, cnt, m)
			}
		}
	}
}

func TestXpanderIsGoodExpander(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := NewXpander(11, 18, 5, rng)
	lambda2 := x.G.SecondEigenvalue(200, rng)
	ramanujan := 2 * math.Sqrt(float64(x.D-1))
	// Random lifts are near-Ramanujan with overwhelming probability; allow
	// 15% slack.
	if lambda2 > ramanujan*1.15 {
		t.Fatalf("lambda2 = %.3f, want <= 1.15 * 2*sqrt(d-1) = %.3f", lambda2, ramanujan*1.15)
	}
}

func TestSlimFlyCounts(t *testing.T) {
	// q=5: 50 ToRs, degree 7. q=17 (the paper's config): 578 ToRs, degree 25.
	for _, c := range []struct{ q, n, deg int }{{5, 50, 7}, {13, 338, 19}, {17, 578, 25}} {
		sf := NewSlimFly(c.q, 1)
		if sf.NumSwitches() != c.n {
			t.Errorf("q=%d: switches = %d, want %d", c.q, sf.NumSwitches(), c.n)
		}
		d, ok := sf.G.IsRegular()
		if !ok || d != c.deg {
			t.Errorf("q=%d: degree = %d (regular=%v), want %d", c.q, d, ok, c.deg)
		}
	}
}

func TestSlimFlyDiameter2(t *testing.T) {
	for _, q := range []int{5, 13} {
		sf := NewSlimFly(q, 1)
		if d := sf.G.PathStats().Diameter; d != 2 {
			t.Fatalf("q=%d: diameter = %d, want 2 (the MMS property)", q, d)
		}
	}
}

func TestSlimFlyRejectsBadQ(t *testing.T) {
	for _, q := range []int{4, 6, 7, 9, 15} { // non-prime or q%4 != 1
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("q=%d should panic", q)
				}
			}()
			NewSlimFly(q, 1)
		}()
	}
}

func TestLonghopCounts(t *testing.T) {
	// The paper's configuration: 512 ToRs, 10 network ports.
	lh := NewLonghop(9, 10, 8)
	if lh.NumSwitches() != 512 {
		t.Fatalf("switches = %d, want 512", lh.NumSwitches())
	}
	d, ok := lh.G.IsRegular()
	if !ok || d != 10 {
		t.Fatalf("degree = %d (regular=%v), want 10", d, ok)
	}
	if err := lh.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLonghopFoldedHypercubeDiameter(t *testing.T) {
	// With one long hop (all-ones), the folded hypercube halves the
	// hypercube's diameter: dim=6 -> 3.
	lh := NewLonghop(6, 7, 1)
	if d := lh.G.PathStats().Diameter; d != 3 {
		t.Fatalf("folded 6-cube diameter = %d, want 3", d)
	}
	cube := NewLonghop(6, 6, 1)
	if d := cube.G.PathStats().Diameter; d != 6 {
		t.Fatalf("6-cube diameter = %d, want 6", d)
	}
}

func TestLonghopBeatsHypercubeAvgPath(t *testing.T) {
	cube := NewLonghop(7, 7, 1)
	lh := NewLonghop(7, 9, 1)
	if lh.G.PathStats().Mean >= cube.G.PathStats().Mean {
		t.Fatalf("long hops should shorten average paths: %v vs %v",
			lh.G.PathStats().Mean, cube.G.PathStats().Mean)
	}
}

func TestTopologyHelpers(t *testing.T) {
	ft := NewFatTree(4)
	if got := len(ft.ToRs()); got != 8 {
		t.Fatalf("ToRs = %d, want 8 edge switches", got)
	}
	if ft.NetworkPorts() != 2*ft.G.M() {
		t.Fatalf("NetworkPorts mismatch")
	}
	ss := ft.ServerSwitch()
	if len(ss) != ft.TotalServers() {
		t.Fatalf("ServerSwitch length mismatch")
	}
	for i, sw := range ss {
		if ft.Servers[sw] == 0 {
			t.Fatalf("server %d on serverless switch %d", i, sw)
		}
	}
}
