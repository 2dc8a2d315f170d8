package flowsim

import (
	"testing"

	"beyondft/internal/sim"
)

func TestLoopStats(t *testing.T) {
	n := NewNetwork(pairTopo(4), DefaultConfig())
	if n.loopEvents != 0 || n.allocRounds != 0 || n.heapHighWater != 0 {
		t.Fatal("fresh network has non-zero loop statistics")
	}

	// Three arrivals queued up front: the arrival-heap high water must see
	// all of them before the first one starts.
	n.ScheduleFlow(0, 0, 4, 1_000_000)
	n.ScheduleFlow(sim.Millisecond, 1, 5, 1_000_000)
	n.ScheduleFlow(2*sim.Millisecond, 2, 6, 1_000_000)
	n.Run(sim.Second)

	if n.heapHighWater != 3 {
		t.Fatalf("heap high water %d, want 3", n.heapHighWater)
	}
	// At least one event instant per arrival and per departure.
	if n.loopEvents < 6 {
		t.Fatalf("events %d, want >= 6", n.loopEvents)
	}
	// Every arrival and departure dirties the allocation.
	if n.allocRounds < 4 {
		t.Fatalf("alloc rounds %d, want >= 4", n.allocRounds)
	}
	for _, f := range n.Flows() {
		if !f.Done {
			t.Fatal("flow incomplete")
		}
	}
}
