package netsim

import (
	"math/rand"
	"testing"

	"beyondft/internal/graph"
	"beyondft/internal/sim"
	"beyondft/internal/topology"
)

func newGraph(n int) *graph.Graph { return graph.New(n) }

// twoRackTopo is a minimal topology: two directly connected ToRs, each with
// `servers` servers.
func twoRackTopo(servers int) *topology.Topology {
	g := newGraph(2)
	g.AddEdge(0, 1)
	return &topology.Topology{
		Name:        "tworacks",
		G:           g,
		Servers:     []int{servers, servers},
		SwitchPorts: servers + 1,
	}
}

func TestSingleFlowCompletesAtLineRate(t *testing.T) {
	topo := twoRackTopo(2)
	cfg := DefaultConfig()
	n := NewNetwork(topo, cfg)
	const size = 10_000_000 // 10 MB
	f := n.StartFlow(0, 2, size)
	n.Eng.Run(sim.Time(sim.Second))
	if !f.Done {
		t.Fatalf("flow did not complete; drops=%d", n.TotalDrops)
	}
	// 10 MB at 10 Gbps is 8 ms of pure serialization (plus header and
	// slow-start overheads); allow up to 2x.
	idealNs := float64(size) * 8 / cfg.LinkRateGbps
	got := float64(f.FCT())
	if got < idealNs {
		t.Fatalf("FCT %.0f ns beat the line rate %.0f ns", got, idealNs)
	}
	if got > 2*idealNs {
		t.Fatalf("FCT %.0f ns is more than 2x the ideal %.0f ns (throughput collapse)", got, idealNs)
	}
}

func TestTwoFlowsShareBottleneckFairly(t *testing.T) {
	topo := twoRackTopo(4)
	cfg := DefaultConfig()
	n := NewNetwork(topo, cfg)
	const size = 5_000_000
	f1 := n.StartFlow(0, 4, size)
	f2 := n.StartFlow(1, 5, size)
	n.Eng.Run(sim.Time(sim.Second))
	if !f1.Done || !f2.Done {
		t.Fatalf("flows did not complete")
	}
	// Two flows share one 10G link: each should take roughly twice the solo
	// time; their FCTs should be within 40% of each other (DCTCP fairness).
	r := float64(f1.FCT()) / float64(f2.FCT())
	if r < 0.6 || r > 1.67 {
		t.Fatalf("unfair FCTs: %v vs %v (ratio %.2f)", f1.FCT(), f2.FCT(), r)
	}
	soloNs := float64(size) * 8 / cfg.LinkRateGbps
	if float64(f1.FCT()) < 1.5*soloNs {
		t.Fatalf("flow finished too fast for a shared bottleneck: %v < 1.5x solo %v", f1.FCT(), soloNs)
	}
}

func TestShortFlowLatencyDominatedByRTT(t *testing.T) {
	topo := twoRackTopo(2)
	cfg := DefaultConfig()
	n := NewNetwork(topo, cfg)
	f := n.StartFlow(0, 2, 1000) // 1 KB, one packet
	n.Eng.Run(sim.Time(sim.Second))
	if !f.Done {
		t.Fatalf("flow did not complete")
	}
	if f.FCT() > sim.Time(100*sim.Microsecond) {
		t.Fatalf("1KB flow took %v; want well under 100µs on an idle path", f.FCT())
	}
}

func TestECNMarkingKeepsQueuesBounded(t *testing.T) {
	run := func(ecnThreshold int) (drops, marked uint64) {
		topo := twoRackTopo(8)
		cfg := DefaultConfig()
		cfg.ECNThresholdPackets = ecnThreshold
		n := NewNetwork(topo, cfg)
		// 8 senders into the single inter-switch link.
		for i := 0; i < 8; i++ {
			n.StartFlow(i, 8+i, 2_000_000)
		}
		n.Eng.Run(sim.Time(5 * sim.Second))
		for _, l := range n.interLinks {
			marked += l.Marked
		}
		for _, f := range n.Flows() {
			if !f.Done {
				t.Fatalf("flow %d incomplete (ecn=%d)", f.ID, ecnThreshold)
			}
		}
		return n.TotalDrops, marked
	}
	dropsECN, markedECN := run(20)
	dropsNoECN, _ := run(100_000) // marking disabled: drop-tail only
	if markedECN == 0 {
		t.Fatalf("expected ECN marks under 8:1 contention")
	}
	if dropsECN >= dropsNoECN {
		t.Fatalf("ECN should reduce drops: with=%d without=%d", dropsECN, dropsNoECN)
	}
	if dropsECN > 200 {
		t.Fatalf("DCTCP should mostly avoid drops, got %d", dropsECN)
	}
}

// TestDeterministicWithSeed runs one seeded workload twice under each
// routing scheme, each time on a freshly built Jellyfish(12, 4), whose tied
// shortest paths leave KSP and MPTCP a choice to make the same way every time.
func TestDeterministicWithSeed(t *testing.T) {
	for _, r := range []RoutingScheme{ECMP, VLB, HYB, HYBCA, KSP, MPTCP} {
		t.Run(r.String(), func(t *testing.T) {
			run := func() []sim.Time {
				topo := topology.NewJellyfish(12, 4, 2, rand.New(rand.NewSource(5)))
				cfg := DefaultConfig()
				cfg.Seed = 42
				cfg.Routing = r
				n := NewNetwork(topo, cfg)
				rng := rand.New(rand.NewSource(9))
				for i := 0; i < 20; i++ {
					src := rng.Intn(12)
					dst := 12 + rng.Intn(12)
					at := sim.Time(rng.Intn(1000)) * sim.Microsecond
					n.ScheduleFlow(at, src, dst, int64(1000+rng.Intn(500_000)))
				}
				n.Eng.Run(sim.Time(sim.Second))
				var out []sim.Time
				for _, f := range n.Flows() {
					out = append(out, f.EndNs)
				}
				return out
			}
			a, b := run(), run()
			if len(a) != len(b) {
				t.Fatalf("different flow counts")
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("non-deterministic FCT at flow %d: %v vs %v", i, a[i], b[i])
				}
			}
		})
	}
}

func TestVLBUsesLongerPaths(t *testing.T) {
	// Star of 5 switches around a ring; VLB should bounce through vias.
	g := newGraph(5)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)
	}
	topo := &topology.Topology{Name: "ring5", G: g,
		Servers: []int{2, 2, 2, 2, 2}, SwitchPorts: 4}
	cfgE := DefaultConfig()
	cfgE.Routing = ECMP
	cfgV := DefaultConfig()
	cfgV.Routing = VLB
	hops := func(cfg Config) float64 {
		n := NewNetwork(topo, cfg)
		n.StartFlow(0, 2, 3_000_000) // rack 0 -> rack 1 (adjacent)
		n.Eng.Run(sim.Time(sim.Second))
		tx := uint64(0)
		for _, l := range n.interLinks {
			tx += l.Transmitted
		}
		return float64(tx)
	}
	he, hv := hops(cfgE), hops(cfgV)
	if hv <= he {
		t.Fatalf("VLB inter-switch transmissions (%v) should exceed ECMP's (%v)", hv, he)
	}
}

func TestHybSwitchesToVLBAfterThreshold(t *testing.T) {
	topo := twoRackTopo(2)
	cfg := DefaultConfig()
	cfg.Routing = HYB
	n := NewNetwork(topo, cfg)
	f := n.StartFlow(0, 2, 50_000) // under Q: pure ECMP
	n.Eng.Run(sim.Time(sim.Second))
	if !f.Done {
		t.Fatalf("short flow incomplete")
	}
	s := &n.connAt(f.ID).snd
	if s.hybVLB {
		t.Fatalf("HYB switched to VLB before the Q threshold")
	}
	f2 := n.StartFlow(1, 3, 1_000_000) // over Q: must flip
	n.Eng.Run(sim.Time(2 * sim.Second))
	if !f2.Done {
		t.Fatalf("long flow incomplete")
	}
	if !n.connAt(f2.ID).snd.hybVLB {
		t.Fatalf("HYB did not switch to VLB after the Q threshold")
	}
}

func TestDropRecoveryViaTimeout(t *testing.T) {
	topo := twoRackTopo(4)
	cfg := DefaultConfig()
	cfg.QueueCapPackets = 5 // tiny queues force drops
	cfg.ECNThresholdPackets = 1000
	n := NewNetwork(topo, cfg)
	for i := 0; i < 4; i++ {
		n.StartFlow(i, 4+i, 500_000)
	}
	n.Eng.Run(sim.Time(5 * sim.Second))
	if n.TotalDrops == 0 {
		t.Fatalf("expected drops with 5-packet queues and no ECN")
	}
	for _, f := range n.Flows() {
		if !f.Done {
			t.Fatalf("flow %d failed to recover from drops", f.ID)
		}
	}
}

func TestServerBottleneckIgnoredMode(t *testing.T) {
	topo := twoRackTopo(4)
	cfg := DefaultConfig()
	cfg.ServerLinkRateGbps = 4000 // effectively unconstrained
	n := NewNetwork(topo, cfg)
	f := n.StartFlow(0, 4, 1_000_000)
	n.Eng.Run(sim.Time(sim.Second))
	if !f.Done {
		t.Fatalf("flow incomplete")
	}
	// The inter-switch 10G link is now the only constraint.
	idealNs := 1_000_000.0 * 8 / cfg.LinkRateGbps
	if float64(f.FCT()) > 3*idealNs {
		t.Fatalf("FCT %v too slow for network-only bottleneck (ideal %.0f ns)", f.FCT(), idealNs)
	}
}
