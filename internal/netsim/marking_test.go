package netsim

import (
	"testing"

	"beyondft/internal/sim"
)

// TestMarkingAtThresholdSemantics pins the DCTCP instant-queue marking rule
// at the link level: an arriving packet is marked iff the system already
// holds at least K packets (queued + in service), so the first mark lands on
// the packet that raises the occupancy to K+1 — not K+2 as the old
// queued-only accounting did.
func TestMarkingAtThresholdSemantics(t *testing.T) {
	const K = 3
	const N = 10
	eng := sim.NewEngine()
	var delivered, dropped int
	// Rate 0.001 Gbps: serializing one packet takes ~12 ms, so all N
	// enqueues at t=0 pile up behind the first packet in service.
	l := newLink(eng, 0.001, 1, 100, K,
		func(p *Packet) { delivered++ },
		func(p *Packet) { dropped++ })
	pkts := make([]*Packet, N)
	for i := range pkts {
		pkts[i] = &Packet{SizeBytes: 1500}
		l.Enqueue(pkts[i])
	}
	if dropped != 0 {
		t.Fatalf("%d drops with a 100-packet buffer", dropped)
	}
	for i, p := range pkts {
		// Before enqueuing packet i, the system holds i packets.
		wantCE := i >= K
		if p.CE != wantCE {
			t.Fatalf("packet %d: CE = %v, want %v (K = %d)", i, p.CE, wantCE, K)
		}
	}
	if want := uint64(N - K); l.Marked != want {
		t.Fatalf("Marked = %d, want %d", l.Marked, want)
	}
	if l.MaxQueue != N {
		t.Fatalf("MaxQueue = %d, want %d (instant queue counts the packet in service)", l.MaxQueue, N)
	}
	if l.QueueLen() != N {
		t.Fatalf("QueueLen = %d, want %d before any tx completes", l.QueueLen(), N)
	}
}

// TestDropTailBoundsWaitingQueue: the buffer capacity applies to waiting
// packets; the packet in service does not consume a buffer slot.
func TestDropTailBoundsWaitingQueue(t *testing.T) {
	const cap = 4
	eng := sim.NewEngine()
	var dropped int
	l := newLink(eng, 0.001, 1, cap, 1000,
		func(p *Packet) {}, func(p *Packet) { dropped++ })
	// First packet goes straight into service; the next `cap` fill the
	// buffer; everything beyond drops.
	for i := 0; i < cap+3; i++ {
		l.Enqueue(&Packet{SizeBytes: 1500})
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (1 in service + %d buffered)", dropped, cap)
	}
	if l.QueueLen() != cap+1 {
		t.Fatalf("QueueLen = %d, want %d", l.QueueLen(), cap+1)
	}
}

// TestKSPCacheBounded: the k-shortest-paths cache evicts oldest-first once
// it reaches Cfg.KSPCacheEntries pairs.
func TestKSPCacheBounded(t *testing.T) {
	topo := ringTopo(8, 1)
	cfg := DefaultConfig()
	cfg.Routing = KSP
	cfg.KSPCacheEntries = 4
	n := NewNetwork(topo, cfg)
	for src := int32(0); src < 8; src++ {
		for dst := int32(0); dst < 8; dst++ {
			if src != dst {
				n.kspPaths(src, dst)
			}
		}
	}
	if got := len(n.kspCache); got != 4 {
		t.Fatalf("KSP cache holds %d pairs, want the bound 4", got)
	}
	// A bounded cache still returns correct paths after eviction churn.
	paths := n.kspPaths(0, 4)
	if len(paths) == 0 {
		t.Fatalf("no paths after eviction churn")
	}
	for _, p := range paths {
		if p[0] != 0 || p[len(p)-1] != 4 {
			t.Fatalf("bad path endpoints: %v", p)
		}
	}
}

// TestPacketConservationCounters: once the event queue drains, every
// injected packet was delivered or dropped, and delivered data bytes cover
// every flow's payload without exceeding the injected bytes.
func TestPacketConservationCounters(t *testing.T) {
	for _, scheme := range []RoutingScheme{ECMP, VLB, HYB, KSP, MPTCP} {
		topo := ringTopo(6, 2)
		cfg := DefaultConfig()
		cfg.Routing = scheme
		cfg.QueueCapPackets = 16 // small buffers: force some drops
		n := NewNetwork(topo, cfg)
		for i := 0; i < 6; i++ {
			n.StartFlow(i, (i+4)%12, int64(200_000+17_000*i))
		}
		n.Eng.RunAll()
		for _, f := range n.Flows() {
			if !f.Done {
				t.Fatalf("%v: flow %d incomplete", scheme, f.ID)
			}
		}
		if n.PktsInjected != n.PktsDelivered+n.TotalDrops {
			t.Fatalf("%v: injected %d != delivered %d + dropped %d",
				scheme, n.PktsInjected, n.PktsDelivered, n.TotalDrops)
		}
		if n.DataBytesDelivered > n.DataBytesInjected {
			t.Fatalf("%v: delivered %d data bytes > injected %d",
				scheme, n.DataBytesDelivered, n.DataBytesInjected)
		}
		var payload uint64
		for _, f := range n.Flows() {
			if n.connAt(f.ID).isParent {
				continue // MPTCP parents own no transport; subflows carry the bytes
			}
			payload += uint64(f.SizeBytes)
		}
		if n.DataBytesDelivered < payload {
			t.Fatalf("%v: delivered %d data bytes < total payload %d",
				scheme, n.DataBytesDelivered, payload)
		}
	}
}
