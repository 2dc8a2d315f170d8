package sim

import (
	"fmt"
	"sort"
	"testing"
)

// FuzzEngineEventOrder checks the 4-ary event heap against a stable-sort
// oracle: events decoded from the fuzz input (a mix of closure and packet
// events, including handlers that schedule children) must execute in
// (time, insertion) order — times never decrease, equal-time events run
// FIFO, and nothing is lost or duplicated.
func FuzzEngineEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 1, 2})
	f.Add([]byte{9, 3, 9, 3, 0, 200, 7, 7, 7})
	f.Add([]byte{255, 1, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		eng := NewEngine()
		type rec struct {
			at  Time
			idx int
		}
		var execd []rec
		var scheduled []rec
		extra := 0 // children scheduled from inside handlers
		for i, b := range data {
			i, b := i, b
			at := Time(b % 32) // small range forces many exact ties
			scheduled = append(scheduled, rec{at: at, idx: i})
			handler := func() {
				execd = append(execd, rec{at: eng.Now(), idx: i})
				if b%5 == 0 { // some handlers schedule children
					extra++
					eng.After(Time(b%3), func() {
						execd = append(execd, rec{at: eng.Now(), idx: -1})
					})
				}
			}
			if b%2 == 0 {
				eng.Schedule(at, handler)
			} else {
				eng.SchedulePacket(at, func(any) { handler() }, nil)
			}
		}
		n := eng.RunAll()
		if int(n) != len(data)+extra {
			t.Fatalf("executed %d events, scheduled %d", n, len(data)+extra)
		}
		// Times never decrease.
		for i := 1; i < len(execd); i++ {
			if execd[i].at < execd[i-1].at {
				t.Fatalf("time went backwards: %d after %d", execd[i].at, execd[i-1].at)
			}
		}
		// Top-level events match a stable sort by time: same multiset of
		// (time), and among equal times, insertion (idx) order.
		var top []rec
		for _, r := range execd {
			if r.idx >= 0 {
				top = append(top, r)
			}
		}
		if len(top) != len(scheduled) {
			t.Fatalf("%d top-level executions, %d scheduled", len(top), len(scheduled))
		}
		oracle := append([]rec(nil), scheduled...)
		sort.SliceStable(oracle, func(a, b int) bool { return oracle[a].at < oracle[b].at })
		for i := range top {
			if top[i] != oracle[i] {
				t.Fatalf("position %d: executed %+v, oracle %+v", i, top[i], oracle[i])
			}
		}
	})
}

// scriptEngine is the Engine surface the differential script drives; the
// live engine and the frozen oracle both satisfy it.
type scriptEngine interface {
	Now() Time
	Pending() int
	Processed() uint64
	Schedule(at Time, fn func()) uint64
	SchedulePacket(at Time, pfn func(any), arg any) uint64
	SchedulePacketExact(at Time, seq uint64, pfn func(any), arg any)
	SeqClock() uint64
	SetClock(now Time, seq uint64)
	Run(until Time) uint64
	RunAll() uint64
	Stats() LoopStats
}

// runEngineScript interprets data as a program over eng and returns a log
// of everything observable: each executed event's (time, seq) and the
// Pending() it saw from inside its handler, and each Run call's return
// value with the clock and counters after it.
//
// Two bytes make one instruction, (op, arg):
//
//	op%8 0,1  Schedule / SchedulePacket at Now+arg%32, possibly in the past
//	          after a Run (both clamp); the handler's children come from arg
//	     2,3  SchedulePacketExact: reserve arg%3+1 sequence
//	          numbers with SetClock and insert them in reverse order at one
//	          unclamped time, which may lie before Now
//	     4    Run(Now + arg%16): a cut point, often mid-tie
//	     5    Run(Now - 1): a horizon in the past
//	     6    a burst of arg%8+2 same-instant events
//	     7    RunAll
//
// A handler built from behaviour byte b schedules b%4 children (0, 1 or
// 2+; the first refills the running event's hole, the rest take the
// ordinary push path) at Now + a small delay, or in the past when the
// byte says so; children schedule their own until depth 3.
func runEngineScript(eng scriptEngine, data []byte) []string {
	var log []string
	var spawn func(at Time, b byte, depth int, packet bool)
	handlerFor := func(seq *uint64, b byte, depth int) func() {
		return func() {
			log = append(log, fmt.Sprintf("ev at=%d seq=%d pending=%d", eng.Now(), *seq, eng.Pending()))
			if depth >= 3 {
				return
			}
			for k := 0; k < int(b%4); k++ {
				cb := b*31 + byte(k)*17 + byte(depth)
				at := eng.Now() + Time(cb%7)
				if cb%11 == 0 {
					at = eng.Now() - 5 // clamps to Now
				}
				spawn(at, cb, depth+1, (cb>>3)%2 == 0)
			}
		}
	}
	spawn = func(at Time, b byte, depth int, packet bool) {
		seq := new(uint64)
		h := handlerFor(seq, b, depth)
		if packet {
			*seq = eng.SchedulePacket(at, func(any) { h() }, nil)
		} else {
			*seq = eng.Schedule(at, h)
		}
	}
	ran := func(op string, n uint64) {
		log = append(log, fmt.Sprintf("%s ran=%d now=%d processed=%d pending=%d seq=%d",
			op, n, eng.Now(), eng.Processed(), eng.Pending(), eng.SeqClock()))
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%8, data[i+1]
		switch op {
		case 0, 1:
			spawn(eng.Now()+Time(arg%32)-4, arg, 0, op == 1)
		case 2, 3:
			k := uint64(arg%3) + 1
			base := eng.SeqClock()
			eng.SetClock(eng.Now(), base+k)
			at := eng.Now() + Time(arg%16) - 6
			for s := base + k; s > base; s-- {
				seq := new(uint64)
				*seq = s
				h := handlerFor(seq, arg, 1)
				eng.SchedulePacketExact(at, s, func(any) { h() }, nil)
			}
		case 4:
			ran("run", eng.Run(eng.Now()+Time(arg%16)))
		case 5:
			ran("run-past", eng.Run(eng.Now()-1))
		case 6:
			at := eng.Now() + Time(arg%5)
			for k := 0; k < int(arg%8)+2; k++ {
				spawn(at, arg+byte(k), 1, k%2 == 0)
			}
		case 7:
			ran("runall", eng.RunAll())
		}
	}
	ran("drain", eng.RunAll())
	st := eng.Stats()
	log = append(log, fmt.Sprintf("stats events=%d high_water=%d sim_time=%d", st.Events, st.HeapHighWater, st.SimTime))
	return log
}

// FuzzEngineVsFrozen runs the same program on the live engine and on the
// frozen copy of the engine it replaced and requires the two logs to be
// identical: the (time, seq) execution sequence, Pending() as seen inside
// every handler (the fused pop-and-push must not show through), every
// Run's return value, and Processed() and HeapHighWater at the end.
func FuzzEngineVsFrozen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 9, 1, 9, 0, 3, 4, 5, 7, 0})
	f.Add([]byte{6, 7, 6, 255, 4, 0, 4, 1, 5, 0, 7, 0})
	f.Add([]byte{2, 2, 3, 5, 0, 44, 4, 15, 2, 0, 5, 0, 1, 33, 7, 0})
	f.Add([]byte{0, 3, 0, 7, 0, 11, 1, 15, 1, 19, 1, 23, 4, 8, 0, 27, 4, 8, 6, 6, 4, 2, 3, 1, 7, 0})
	f.Add([]byte{1, 255, 1, 254, 1, 253, 0, 252, 0, 251, 4, 31, 5, 0, 6, 250, 2, 249, 4, 3, 7, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		got := runEngineScript(NewEngine(), data)
		want := runEngineScript(newFrozenEngine(), data)
		if len(got) != len(want) {
			t.Fatalf("engine logged %d lines, frozen engine %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("line %d:\n  engine %s\n  frozen %s", i, got[i], want[i])
			}
		}
	})
}
