package sim

import "testing"

func TestEngineStats(t *testing.T) {
	e := NewEngine()
	if s := e.Stats(); s != (LoopStats{}) {
		t.Fatalf("fresh engine has non-zero stats: %+v", s)
	}

	// Queue 10 events up front: the heap high water must see all of them
	// before the first pop.
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i)*Millisecond, func() {})
	}
	// One event reschedules, so Events ends at 11.
	e.After(3*Millisecond+1, func() { e.After(Millisecond, func() {}) })
	e.Run(20 * Millisecond)

	s := e.Stats()
	if s.Events != 12 || s.Events != e.Processed() {
		t.Fatalf("events=%d, processed=%d, want 12", s.Events, e.Processed())
	}
	if s.HeapHighWater != 11 {
		t.Fatalf("heap high water %d, want 11", s.HeapHighWater)
	}
	if s.SimTime != 20*Millisecond {
		t.Fatalf("sim time %d, want %d", s.SimTime, 20*Millisecond)
	}
	if s.WallTime <= 0 {
		t.Fatalf("wall time %v, want > 0", s.WallTime)
	}

	// RunAll accumulates into the same counters.
	e.After(Millisecond, func() {})
	e.RunAll()
	if s2 := e.Stats(); s2.Events != 13 || s2.WallTime < s.WallTime {
		t.Fatalf("stats did not accumulate across RunAll: %+v", s2)
	}
}
