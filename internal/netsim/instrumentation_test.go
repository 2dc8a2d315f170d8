package netsim

import (
	"math/rand"
	"testing"

	"beyondft/internal/sim"
	"beyondft/internal/topology"
)

func TestAvgDataPathHopsECMPvsVLB(t *testing.T) {
	// On a ring, VLB detours must visit strictly more switches per packet
	// than shortest-path ECMP.
	hops := func(r RoutingScheme) float64 {
		topo := ringTopo(8, 2)
		cfg := DefaultConfig()
		cfg.Routing = r
		n := NewNetwork(topo, cfg)
		n.StartFlow(0, 2, 2_000_000) // rack 0 -> rack 1
		n.Eng.Run(5 * sim.Second)
		if !n.Flows()[0].Done {
			t.Fatalf("%v flow incomplete", r)
		}
		return n.AvgDataPathHops()
	}
	e, v := hops(ECMP), hops(VLB)
	if e < 2.0-1e-9 || e > 2.0+1e-9 {
		t.Fatalf("ECMP avg hops = %v, want exactly 2 (src ToR + dst ToR)", e)
	}
	if v <= e+0.5 {
		t.Fatalf("VLB avg hops %v should clearly exceed ECMP's %v", v, e)
	}
}

func TestInterSwitchStatsConsistency(t *testing.T) {
	topo := twoRackTopo(4)
	cfg := DefaultConfig()
	n := NewNetwork(topo, cfg)
	for i := 0; i < 4; i++ {
		n.StartFlow(i, 4+i, 500_000)
	}
	n.Eng.Run(5 * sim.Second)
	s := n.InterSwitchStats()
	if s.Links != 2 {
		t.Fatalf("links = %d, want 2 (one directed pair)", s.Links)
	}
	if s.Transmitted == 0 || s.BytesTx == 0 {
		t.Fatalf("no traffic recorded: %+v", s)
	}
	// The queue cap bounds the observed maximum: capPkts waiting plus the
	// packet in service (MaxQueue records the DCTCP instant queue).
	if s.MaxQueue > cfg.QueueCapPackets+1 {
		t.Fatalf("max queue %d exceeds the cap %d (+1 in service)", s.MaxQueue, cfg.QueueCapPackets)
	}
	// Under sustained 4:1 contention, DCTCP should have pushed a queue to
	// at least the ECN threshold once.
	if s.MaxQueue < cfg.ECNThresholdPackets {
		t.Fatalf("max queue %d never reached the ECN threshold %d", s.MaxQueue, cfg.ECNThresholdPackets)
	}
}

func TestDCTCPKeepsQueuesNearThreshold(t *testing.T) {
	// The DCTCP promise: persistent queues hover near the marking threshold
	// rather than filling the buffer. Sample occupancy during a long
	// transfer and check the bottleneck queue stays well under the cap.
	topo := twoRackTopo(2)
	cfg := DefaultConfig()
	n := NewNetwork(topo, cfg)
	n.StartFlow(0, 2, 50_000_000)
	samples := 0
	over := 0
	for i := 0; i < 200; i++ {
		n.Eng.Run(n.Eng.Now() + sim.Time(200*sim.Microsecond))
		for _, l := range n.interLinks {
			samples++
			if l.QueueLen() > 3*cfg.ECNThresholdPackets {
				over++
			}
		}
	}
	if samples == 0 {
		t.Fatalf("no samples")
	}
	if frac := float64(over) / float64(samples); frac > 0.05 {
		t.Fatalf("queues exceeded 3x ECN threshold in %.1f%% of samples", frac*100)
	}
}

func TestHopAccountingWithFatTree(t *testing.T) {
	ft := topology.NewFatTree(4)
	cfg := DefaultConfig()
	n := NewNetwork(&ft.Topology, cfg)
	// Cross-pod flow visits 5 switches: edge, agg, core, agg, edge.
	src := 0                     // first server (pod 0, first edge switch)
	dst := ft.TotalServers() - 1 // last server (pod k-1)
	n.StartFlow(src, dst, 100_000)
	n.Eng.Run(sim.Second)
	if !n.Flows()[0].Done {
		t.Fatalf("flow incomplete")
	}
	got := n.AvgDataPathHops()
	if got < 5-1e-9 || got > 5+1e-9 {
		t.Fatalf("cross-pod fat-tree path visits %v switches, want 5", got)
	}
}

func TestDeterministicAcrossInstrumentation(t *testing.T) {
	// Instrumentation must not perturb simulation results.
	run := func() sim.Time {
		rng := rand.New(rand.NewSource(3))
		topo := twoRackTopo(3)
		cfg := DefaultConfig()
		n := NewNetwork(topo, cfg)
		for i := 0; i < 3; i++ {
			n.StartFlow(i, 3+i, int64(100_000+rng.Intn(400_000)))
		}
		n.Eng.Run(2 * sim.Second)
		_ = n.InterSwitchStats()
		var last sim.Time
		for _, f := range n.Flows() {
			if f.EndNs > last {
				last = f.EndNs
			}
		}
		return last
	}
	if run() != run() {
		t.Fatalf("instrumented runs diverge")
	}
}
