package sim

import "testing"

// holdDepth is the pending-event count BenchmarkEngineHold keeps: the heap
// depth a loaded netsim run sits at (150–170 on the benchmark's legs).
const holdDepth = 160

// BenchmarkEngineHold is the classic hold model on packet events: the queue
// is held at holdDepth, and every handler schedules its own successor a
// uniform 1–10 µs ahead, so one op is one event — a pop and a push at a
// steady depth, the engine's share of a netsim event with nothing else in
// the loop — and ns/op reads as ns/event (the last Run call overshoots b.N
// by at most a few dozen events). TestEngineHoldAllocs gates it at 0
// allocs/op.
func BenchmarkEngineHold(b *testing.B) {
	eng := holdEngine()
	b.ReportAllocs()
	b.ResetTimer()
	target := eng.Processed() + uint64(b.N)
	for eng.Processed() < target {
		eng.Run(eng.Now() + 1_000) // ~32 events a call
	}
}

// TestEngineHoldAllocs is BenchmarkEngineHold's 0 allocs/op gate: the hold
// model's steady state must not allocate. One run here is one Run call of
// about 32 events, so it is stricter than the benchmark's per-event
// allocs/op.
func TestEngineHoldAllocs(t *testing.T) {
	eng := holdEngine()
	if n := testing.AllocsPerRun(2_000, func() { eng.Run(eng.Now() + 1_000) }); n != 0 {
		t.Fatalf("hold model allocates %v times per Run call, want 0", n)
	}
}

// holdEngine is the hold model at holdDepth pending events, past its
// start-up transient.
func holdEngine() *Engine {
	eng := NewEngine()
	rng := NewRNG(1)
	var handler func(any)
	handler = func(any) {
		eng.SchedulePacket(eng.Now()+Time(1+rng.Intn(10_000)), handler, nil)
	}
	for i := 0; i < holdDepth; i++ {
		eng.SchedulePacket(Time(1+rng.Intn(10_000)), handler, nil)
	}
	eng.Run(100_000)
	return eng
}
