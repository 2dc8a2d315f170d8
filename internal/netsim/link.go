package netsim

import "beyondft/internal/sim"

// Link is a unidirectional link with an output queue at its sending side:
// drop-tail with capacity capPackets, ECN marking when the queue length at
// enqueue time is at or above the marking threshold (DCTCP-style instant
// queue-length marking).
//
// Transmission is event-driven and allocation-free on the per-packet path:
// the tx-done and delivery handlers are bound once at construction and
// scheduled via sim.Engine.SchedulePacket.
//
// Beyond the queue, the link tracks its two kinds of in-flight state — the
// packet in service (txPkt, with the time/seq of its pending tx-done event)
// and the packets propagating toward the receiver (transit, FIFO because
// the propagation delay is constant) — so a checkpoint can re-arm every
// pending event with its original (time, seq) key.
type Link struct {
	id      int32 // index into Network.allLinks (checkpoint addressing)
	eng     *sim.Engine
	bitsPNs float64 // rate in bits per nanosecond
	propNs  sim.Time

	queue    []*Packet // FIFO; queue[head] is next to transmit
	head     int
	capPkts  int
	ecnThold int
	busy     bool

	// In-service packet and its pending tx-done event key.
	txPkt *Packet
	txAt  sim.Time
	txSeq uint64

	// Packets between tx-done and delivery, with their event keys;
	// transit[transitHead] is the oldest (next to deliver).
	transit     []linkTransit
	transitHead int

	deliver func(*Packet) // invoked at the receiver after tx + propagation
	drop    func(*Packet) // invoked when the queue is full

	// isHostUplink marks the sending host's own NIC link: its ECN marks are
	// flagged CEAtHost so congestion-aware routing ignores them.
	isHostUplink bool

	txDoneFn  func(any) // pre-bound handlers (no per-packet closures)
	deliverFn func(any)

	// Stats.
	Transmitted uint64
	Dropped     uint64
	Marked      uint64
	BytesTx     uint64
	MaxQueue    int
}

// linkTransit is one packet propagating on the wire and the (time, seq) key
// of its pending delivery event.
type linkTransit struct {
	p   *Packet
	at  sim.Time
	seq uint64
}

func newLink(eng *sim.Engine, rateGbps float64, propNs int64, capPkts, ecnThold int,
	deliver, drop func(*Packet)) *Link {
	l := &Link{
		eng:      eng,
		bitsPNs:  rateGbps, // 1 Gbps == 1 bit/ns
		propNs:   sim.Time(propNs),
		capPkts:  capPkts,
		ecnThold: ecnThold,
		deliver:  deliver,
		drop:     drop,
	}
	l.txDoneFn = l.onTxDone
	l.deliverFn = l.onDeliver
	return l
}

// queuedLen returns the number of waiting (not yet transmitting) packets —
// the population the drop-tail capacity bounds.
func (l *Link) queuedLen() int { return len(l.queue) - l.head }

// QueueLen returns the instantaneous number of packets in the system at this
// link: waiting packets plus the one in service. This is DCTCP's "instant
// queue" — the quantity the ECN threshold K compares against and the one
// MaxQueue records.
func (l *Link) QueueLen() int {
	q := l.queuedLen()
	if l.busy {
		q++
	}
	return q
}

// Enqueue accepts a packet for transmission, marking or dropping per the
// queue state. The drop-tail bound applies to the waiting queue (the buffer);
// ECN marks the arriving packet when the instant queue — waiting plus
// in-service — already holds at least ecnThold packets, per DCTCP's
// instant-queue-length marking (so the threshold K marks at K packets in
// system, not K+1).
func (l *Link) Enqueue(p *Packet) {
	if l.queuedLen() >= l.capPkts {
		l.Dropped++
		l.drop(p)
		return
	}
	if l.QueueLen() >= l.ecnThold {
		p.CE = true
		if l.isHostUplink {
			p.CEAtHost = true
		}
		l.Marked++
	}
	l.queue = append(l.queue, p)
	if q := l.QueueLen(); q > l.MaxQueue {
		l.MaxQueue = q
	}
	if !l.busy {
		l.startTx()
	}
}

func (l *Link) startTx() {
	p := l.queue[l.head]
	l.queue[l.head] = nil
	l.head++
	if l.head == len(l.queue) {
		// Drained: start over at the front, so a link whose queue keeps
		// emptying never grows its slice past its deepest backlog.
		l.queue = l.queue[:0]
		l.head = 0
	} else if l.head > 64 && l.head*2 >= len(l.queue) {
		n := copy(l.queue, l.queue[l.head:])
		for i := n; i < len(l.queue); i++ {
			l.queue[i] = nil
		}
		l.queue = l.queue[:n]
		l.head = 0
	}
	l.busy = true
	txNs := sim.Time(float64(p.SizeBytes) * 8 / l.bitsPNs)
	if txNs < 1 {
		txNs = 1
	}
	l.txPkt = p
	l.txAt = l.eng.Now() + txNs
	l.txSeq = l.eng.SchedulePacket(l.txAt, l.txDoneFn, p)
}

// onTxDone fires when the last bit leaves the queue: the packet propagates,
// and the next queued packet starts transmitting.
func (l *Link) onTxDone(arg any) {
	p := arg.(*Packet)
	l.Transmitted++
	l.BytesTx += uint64(p.SizeBytes)
	at := l.eng.Now() + l.propNs
	seq := l.eng.SchedulePacket(at, l.deliverFn, p)
	l.transit = append(l.transit, linkTransit{p: p, at: at, seq: seq})
	l.txPkt = nil
	if l.queuedLen() > 0 {
		l.startTx()
	} else {
		l.busy = false
	}
}

func (l *Link) onDeliver(arg any) {
	// Constant propagation delay means deliveries are FIFO: the argument is
	// always transit[transitHead].
	l.transit[l.transitHead] = linkTransit{}
	l.transitHead++
	if l.transitHead == len(l.transit) {
		l.transit = l.transit[:0]
		l.transitHead = 0
	} else if l.transitHead > 64 && l.transitHead*2 >= len(l.transit) {
		n := copy(l.transit, l.transit[l.transitHead:])
		for i := n; i < len(l.transit); i++ {
			l.transit[i] = linkTransit{}
		}
		l.transit = l.transit[:n]
		l.transitHead = 0
	}
	l.deliver(arg.(*Packet))
}
