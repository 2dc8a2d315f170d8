package sim

import "time"

// frozenEngine is the event engine as it stood before the queue was
// replaced (DESIGN.md §13, "The event queue"): a 4-ary heap of 48-byte
// events holding their handlers inline. It is kept verbatim, apart from the
// type names, as the oracle FuzzEngineVsFrozen runs the live engine
// against; do not optimise or tidy it.

type frozenEvent struct {
	at  Time
	seq uint64
	fn  func()    // generic event; nil for packet events
	pfn func(any) // packet event handler (pre-bound, not a closure)
	arg any
}

func (e *frozenEvent) less(o *frozenEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// frozenEngine runs events in (time, insertion) order.
type frozenEngine struct {
	now        Time
	seq        uint64
	events     []frozenEvent // 4-ary min-heap
	count      uint64
	maxPending int           // deepest the heap ever got
	wall       time.Duration // wall-clock time spent inside Run/RunAll
}

// Stats returns a snapshot of the engine's loop statistics. The high water
// is tracked in push with a single integer compare, so the per-event cost
// of keeping these numbers is negligible.
func (e *frozenEngine) Stats() LoopStats {
	return LoopStats{
		Events:        e.count,
		HeapHighWater: e.maxPending,
		SimTime:       e.now,
		WallTime:      e.wall,
	}
}

// newFrozenEngine returns an engine at time 0.
func newFrozenEngine() *frozenEngine { return &frozenEngine{} }

// Now returns the current simulated time.
func (e *frozenEngine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *frozenEngine) Processed() uint64 { return e.count }

// Pending returns the number of queued events.
func (e *frozenEngine) Pending() int { return len(e.events) }

// push inserts ev into the 4-ary heap.
func (e *frozenEngine) push(ev frozenEvent) {
	e.events = append(e.events, ev)
	if len(e.events) > e.maxPending {
		e.maxPending = len(e.events)
	}
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.events[i].less(&e.events[parent]) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (e *frozenEngine) pop() frozenEvent {
	h := e.events
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = frozenEvent{}
	h = h[:last]
	e.events = h
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		minChild := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if h[c].less(&h[minChild]) {
				minChild = c
			}
		}
		if !h[minChild].less(&h[i]) {
			break
		}
		h[i], h[minChild] = h[minChild], h[i]
		i = minChild
	}
	return top
}

// Schedule runs fn at absolute time at (>= Now; earlier times are clamped to
// Now, preserving causality). It returns the event's sequence number — the
// FIFO tie-break rank — which checkpointing code records so a restored run
// replays same-instant events in the original order.
func (e *frozenEngine) Schedule(at Time, fn func()) uint64 {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(frozenEvent{at: at, seq: e.seq, fn: fn})
	return e.seq
}

// After runs fn after delay d.
func (e *frozenEngine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// SchedulePacket runs pfn(arg) at time at without allocating: pfn must be a
// pre-bound function value (e.g. stored once per link), not a fresh closure.
// Like Schedule, it returns the event's sequence number.
func (e *frozenEngine) SchedulePacket(at Time, pfn func(any), arg any) uint64 {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(frozenEvent{at: at, seq: e.seq, pfn: pfn, arg: arg})
	return e.seq
}

// SchedulePacketExact re-inserts a packet event under a previously recorded
// sequence number. It exists for checkpoint restore only: re-arming the
// pending events of a snapshot with their original (time, seq) keys makes
// the restored run's event order — including exact-time ties — bit-identical
// to the uninterrupted one. The caller owns seq uniqueness; SeqClock/SetClock
// restore the counter itself.
func (e *frozenEngine) SchedulePacketExact(at Time, seq uint64, pfn func(any), arg any) {
	e.push(frozenEvent{at: at, seq: seq, pfn: pfn, arg: arg})
}

// SeqClock returns the engine's current sequence counter (the tie-break rank
// the next scheduled event would get, minus one).
func (e *frozenEngine) SeqClock() uint64 { return e.seq }

// SetClock force-sets the simulated time and sequence counter. Checkpoint
// restore only: it must run before any SchedulePacketExact calls so clamping and
// fresh sequence numbers line up with the snapshotted run.
func (e *frozenEngine) SetClock(now Time, seq uint64) {
	e.now = now
	e.seq = seq
}

// SetProcessed force-sets the executed-event counter. Checkpoint restore
// only: it keeps Processed() continuous across a restore, so event-count
// reporting matches the uninterrupted run.
func (e *frozenEngine) SetProcessed(n uint64) { e.count = n }

func (e *frozenEngine) dispatch(ev *frozenEvent) {
	if ev.fn != nil {
		ev.fn()
		return
	}
	ev.pfn(ev.arg)
}

// Run executes events until the queue is empty or the next event is after
// until; it returns the number of events executed. The clock always
// advances to until.
func (e *frozenEngine) Run(until Time) uint64 {
	wall := time.Now()
	defer func() { e.wall += time.Since(wall) }()
	start := e.count
	for len(e.events) > 0 {
		if e.events[0].at > until {
			break
		}
		ev := e.pop()
		e.now = ev.at
		e.count++
		e.dispatch(&ev)
	}
	if e.now < until {
		e.now = until
	}
	return e.count - start
}

// RunAll executes events until the queue drains.
func (e *frozenEngine) RunAll() uint64 {
	wall := time.Now()
	defer func() { e.wall += time.Since(wall) }()
	start := e.count
	for len(e.events) > 0 {
		ev := e.pop()
		e.now = ev.at
		e.count++
		e.dispatch(&ev)
	}
	return e.count - start
}
