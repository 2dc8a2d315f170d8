package netsim

import (
	"testing"

	"beyondft/internal/sim"
)

func TestLoopStatsExposeEngine(t *testing.T) {
	n := NewNetwork(twoRackTopo(2), DefaultConfig())
	f := n.StartFlow(0, 2, 1_000_000)
	n.Eng.Run(sim.Second)
	if !f.Done {
		t.Fatalf("flow incomplete; drops=%d", n.TotalDrops)
	}
	s := n.LoopStats()
	if s != n.Eng.Stats() {
		t.Fatalf("LoopStats %+v diverges from the engine's %+v", s, n.Eng.Stats())
	}
	// A 1 MB flow is ~667 data packets; each crosses several links, each
	// hop at least one event.
	if s.Events < 1000 {
		t.Fatalf("events %d, want >= 1000", s.Events)
	}
	if s.HeapHighWater < 2 {
		t.Fatalf("heap high water %d, want >= 2", s.HeapHighWater)
	}
	if s.SimTime != n.Eng.Now() {
		t.Fatalf("sim time %d != engine now %d", s.SimTime, n.Eng.Now())
	}
	if s.WallTime <= 0 {
		t.Fatalf("wall accounting missing: %+v", s)
	}
}
