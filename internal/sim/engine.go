// Package sim is a minimal deterministic discrete-event simulation engine:
// an integer-nanosecond clock and a hand-rolled 4-ary event heap with FIFO
// tie-breaking, so runs are exactly reproducible for a given seed.
//
// Two event flavours exist: generic closures (Schedule/After) and
// allocation-free packet events (SchedulePacket) used on the simulator's
// per-packet hot path, where a closure per event would cost an allocation
// per hop (see BenchmarkAblationClosureVsPacketEvents).
//
// The queue (DESIGN.md §13, "The event queue") is a heap of pointer-free
// (time, seq, slot) keys over a slab of handlers. Keys are unique, so the
// order events run in is fixed by the keys alone and nothing about the
// queue's layout can reach a simulation's output.
package sim

import (
	"math/bits"
	"time"
)

// Time is simulated time in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// key orders one queued event. It holds no pointers, so moving keys around
// the heap costs no write barriers and the collector never scans them.
type key struct {
	at   uint64 // event time, sign bit flipped: unsigned order is Time order
	seq  uint64 // insertion rank, the FIFO tie-break; unique per engine
	slot uint32 // index of the event's handler in Engine.slab
}

const signBit = 1 << 63

func keyTime(t Time) uint64 { return uint64(t) ^ signBit }

// before reports a < b in (at, seq) order as 0 or 1 without branching: it is
// the borrow out of the 128-bit subtraction (a.at:a.seq) - (b.at:b.seq).
func before(a, b *key) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return borrow
}

// handler is what an event runs. Generic closures are stored as packet
// events too: pfn is callClosure and arg the func() itself (a func value is
// pointer-shaped, so boxing it does not allocate).
type handler struct {
	pfn func(any)
	arg any
}

func callClosure(fn any) { fn.(func())() }

// Engine runs events in (time, insertion) order.
type Engine struct {
	now  Time
	seq  uint64
	keys []key     // 4-ary min-heap on (at, seq)
	slab []handler // handlers, addressed by key.slot
	free []uint32  // recycled slab slots, LIFO
	// hole is set while the root's handler runs: keys[0] still holds the
	// running event's key (and its slab slot), but the position counts as
	// vacant. The handler's first Schedule* fills it with one sift-down — a
	// pop and a push for the price of one — and if the handler schedules
	// nothing, the loop closes the hole before it looks at the queue again.
	hole       bool
	count      uint64
	maxPending int           // deepest the heap ever got
	wall       time.Duration // wall-clock time spent inside Run/RunAll
}

// LoopStats summarizes the event loop for observability: events executed,
// the heap-depth high water, and the simulated-time/wall-time relation of
// all Run/RunAll calls so far.
type LoopStats struct {
	Events        uint64        `json:"events"`
	HeapHighWater int           `json:"heap_high_water"`
	SimTime       Time          `json:"sim_time_ns"`
	WallTime      time.Duration `json:"wall_time_ns"`
}

// Stats returns a snapshot of the engine's loop statistics. The high water
// is tracked in push with a single integer compare, so the per-event cost
// of keeping these numbers is negligible.
func (e *Engine) Stats() LoopStats {
	return LoopStats{
		Events:        e.count,
		HeapHighWater: e.maxPending,
		SimTime:       e.now,
		WallTime:      e.wall,
	}
}

// NewEngine returns an engine at time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.count }

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	n := len(e.keys)
	if e.hole {
		n--
	}
	return n
}

// siftDown places x at the vacant root or below it. Where a node has all
// four children the smallest is picked by a two-round tournament on
// before's 0/1 results, with no data-dependent branch: which child wins is
// a coin toss the branch predictor loses. The one branch left per level is
// the loop exit.
func (e *Engine) siftDown(x key) {
	h := e.keys
	i := 0
	for {
		c := 4*i + 1
		if c+4 > len(h) {
			break
		}
		q := h[c : c+4 : c+4]
		a := 1 - before(&q[0], &q[1])                  // 0 or 1
		b := 3 - before(&q[2], &q[3])                  // 2 or 3
		m := b ^ ((a ^ b) & -before(&q[a&1], &q[b&3])) // a if q[a] < q[b], else b
		w := &q[m&3]
		if before(w, &x) == 0 {
			h[i] = x
			return
		}
		h[i] = *w
		i = c + int(m)
	}
	// At most three children, all leaves.
	c := 4*i + 1
	if c < len(h) {
		m := c
		for j := c + 1; j < len(h); j++ {
			if before(&h[j], &h[m]) != 0 {
				m = j
			}
		}
		if before(&h[m], &x) != 0 {
			h[i] = h[m]
			i = m
		}
	}
	h[i] = x
}

// push queues an event under the key (at, seq).
func (e *Engine) push(at Time, seq uint64, pfn func(any), arg any) {
	if e.hole {
		// The running event's root position and slab slot are both vacant.
		// Pending() goes back up to len(keys), which never exceeds
		// maxPending, so there is no high water to check.
		e.hole = false
		slot := e.keys[0].slot
		e.slab[slot] = handler{pfn, arg}
		e.siftDown(key{keyTime(at), seq, slot})
		return
	}
	var slot uint32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.slab[slot] = handler{pfn, arg}
	} else {
		slot = uint32(len(e.slab))
		e.slab = append(e.slab, handler{pfn, arg})
	}
	x := key{keyTime(at), seq, slot}
	e.keys = append(e.keys, x)
	h := e.keys
	if len(h) > e.maxPending {
		e.maxPending = len(h)
	}
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if before(&x, &h[parent]) == 0 {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

// closeHole finishes the pop of an event whose handler scheduled nothing:
// its slab slot is released and the last key takes the root.
func (e *Engine) closeHole() {
	e.hole = false
	h := e.keys
	slot := h[0].slot
	e.slab[slot] = handler{} // drop the handler's references
	e.free = append(e.free, slot)
	n := len(h) - 1
	last := h[n]
	e.keys = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
}

// Schedule runs fn at absolute time at (>= Now; earlier times are clamped to
// Now, preserving causality). It returns the event's sequence number — the
// FIFO tie-break rank — which checkpointing code records so a restored run
// replays same-instant events in the original order.
func (e *Engine) Schedule(at Time, fn func()) uint64 {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(at, e.seq, callClosure, fn)
	return e.seq
}

// After runs fn after delay d.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// SchedulePacket runs pfn(arg) at time at without allocating: pfn must be a
// pre-bound function value (e.g. stored once per link), not a fresh closure.
// Like Schedule, it returns the event's sequence number.
func (e *Engine) SchedulePacket(at Time, pfn func(any), arg any) uint64 {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(at, e.seq, pfn, arg)
	return e.seq
}

// SchedulePacketExact re-inserts a packet event under a previously recorded
// sequence number. It exists for checkpoint restore only: re-arming the
// pending events of a snapshot with their original (time, seq) keys makes
// the restored run's event order — including exact-time ties — bit-identical
// to the uninterrupted one. The caller owns seq uniqueness; SeqClock/SetClock
// restore the counter itself.
func (e *Engine) SchedulePacketExact(at Time, seq uint64, pfn func(any), arg any) {
	e.push(at, seq, pfn, arg)
}

// SeqClock returns the engine's current sequence counter (the tie-break rank
// the next scheduled event would get, minus one).
func (e *Engine) SeqClock() uint64 { return e.seq }

// SetClock force-sets the simulated time and sequence counter. Checkpoint
// restore only: it must run before any SchedulePacketExact calls so clamping and
// fresh sequence numbers line up with the snapshotted run.
func (e *Engine) SetClock(now Time, seq uint64) {
	e.now = now
	e.seq = seq
}

// SetProcessed force-sets the executed-event counter. Checkpoint restore
// only: it keeps Processed() continuous across a restore, so event-count
// reporting matches the uninterrupted run.
func (e *Engine) SetProcessed(n uint64) { e.count = n }

// SetHeapHighWater raises the heap-depth high water to n. Checkpoint restore
// only: it carries Stats().HeapHighWater across a restore, so a resumed run
// reports the depth the uninterrupted one would. It never lowers the mark
// below what this engine has already held.
func (e *Engine) SetHeapHighWater(n int) {
	if n > e.maxPending {
		e.maxPending = n
	}
}

// run executes events in key order while the earliest is at or before
// until (a keyTime).
func (e *Engine) run(until uint64) uint64 {
	wall := time.Now()
	defer func() { e.wall += time.Since(wall) }()
	start := e.count
	for {
		if e.hole {
			e.closeHole()
		}
		if len(e.keys) == 0 {
			break
		}
		root := e.keys[0]
		if root.at > until {
			break
		}
		ev := e.slab[root.slot]
		e.now = Time(root.at ^ signBit)
		e.count++
		e.hole = true
		ev.pfn(ev.arg)
	}
	return e.count - start
}

// Run executes events until the queue is empty or the next event is after
// until; it returns the number of events executed. The clock always
// advances to until.
func (e *Engine) Run(until Time) uint64 {
	n := e.run(keyTime(until))
	if e.now < until {
		e.now = until
	}
	return n
}

// RunAll executes events until the queue drains.
func (e *Engine) RunAll() uint64 { return e.run(^uint64(0)) }
