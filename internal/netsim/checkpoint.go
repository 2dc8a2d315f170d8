package netsim

import (
	"encoding/json"
	"fmt"
	"sort"

	"beyondft/internal/sim"
	"beyondft/internal/stats"
)

// The netsim checkpoint serializes everything a mid-run packet simulation
// is: every live connection's transport state, every link's queue and
// in-flight packets, the pending event keys ((time, seq) pairs) of timers,
// tx-done and delivery events, the RNG stream, and the engine clock.
// Restoring into a fresh Network on the same topology re-arms each pending
// event under its original key via sim.Engine's SchedulePacketExact, so the
// continuation pops events in exactly the uninterrupted order and the run
// is bit-identical to one that never stopped.
//
// Checkpoint requires DiscardCompleted mode (retained flow history defeats
// the point) and refuses while ScheduleFlow closures are pending — drivers
// that checkpoint must inject arrivals between Run calls (workload.Runner's
// pull-based loop does exactly that).

// packetState is a serialized packet.
type packetState struct {
	FlowID     int32   `json:"flow"`
	Seq        int32   `json:"seq,omitempty"`
	AckSeq     int32   `json:"ack_seq,omitempty"`
	SizeBytes  int32   `json:"size"`
	IsAck      bool    `json:"is_ack,omitempty"`
	CE         bool    `json:"ce,omitempty"`
	CEAtHost   bool    `json:"ce_host,omitempty"`
	ECNEcho    bool    `json:"ecn_echo,omitempty"`
	ECNEchoNet bool    `json:"ecn_echo_net,omitempty"`
	SrcServer  int32   `json:"src"`
	DstServer  int32   `json:"dst"`
	DstSwitch  int32   `json:"dst_sw"`
	ViaSwitch  int32   `json:"via"`
	ViaReached bool    `json:"via_reached,omitempty"`
	PathHash   uint64  `json:"path_hash"`
	Route      []int32 `json:"route,omitempty"`
	Hop        int32   `json:"hop,omitempty"`
}

func capturePacket(p *Packet) packetState {
	return packetState{
		FlowID: p.FlowID, Seq: p.Seq, AckSeq: p.AckSeq, SizeBytes: p.SizeBytes,
		IsAck: p.IsAck, CE: p.CE, CEAtHost: p.CEAtHost,
		ECNEcho: p.ECNEcho, ECNEchoNet: p.ECNEchoNet,
		SrcServer: p.SrcServer, DstServer: p.DstServer, DstSwitch: p.DstSwitch,
		ViaSwitch: p.ViaSwitch, ViaReached: p.ViaReached, PathHash: p.PathHash,
		Route: p.Route, Hop: p.Hop,
	}
}

func (ps *packetState) restore(p *Packet) {
	*p = Packet{
		FlowID: ps.FlowID, Seq: ps.Seq, AckSeq: ps.AckSeq, SizeBytes: ps.SizeBytes,
		IsAck: ps.IsAck, CE: ps.CE, CEAtHost: ps.CEAtHost,
		ECNEcho: ps.ECNEcho, ECNEchoNet: ps.ECNEchoNet,
		SrcServer: ps.SrcServer, DstServer: ps.DstServer, DstSwitch: ps.DstSwitch,
		ViaSwitch: ps.ViaSwitch, ViaReached: ps.ViaReached, PathHash: ps.PathHash,
		Route: ps.Route, Hop: ps.Hop,
	}
}

// transitState is one packet propagating on a link, with its pending
// delivery event key.
type transitState struct {
	P   packetState `json:"p"`
	At  sim.Time    `json:"at"`
	Seq uint64      `json:"seq"`
}

// linkState snapshots one link: waiting queue, in-service packet with its
// tx-done event key, propagating packets, and counters.
type linkState struct {
	Queue       []packetState  `json:"queue,omitempty"`
	TxPkt       *packetState   `json:"tx_pkt,omitempty"`
	TxAt        sim.Time       `json:"tx_at,omitempty"`
	TxSeq       uint64         `json:"tx_seq,omitempty"`
	Transit     []transitState `json:"transit,omitempty"`
	Transmitted uint64         `json:"transmitted,omitempty"`
	Dropped     uint64         `json:"dropped,omitempty"`
	Marked      uint64         `json:"marked,omitempty"`
	BytesTx     uint64         `json:"bytes_tx,omitempty"`
	MaxQueue    int            `json:"max_queue,omitempty"`
}

// senderState is the serialized DCTCP sender.
type senderState struct {
	Cwnd        float64  `json:"cwnd"`
	Ssthresh    float64  `json:"ssthresh"`
	SndUna      int32    `json:"snd_una"`
	NextSeq     int32    `json:"next_seq"`
	DupAcks     int      `json:"dup_acks,omitempty"`
	Alpha       float64  `json:"alpha,omitempty"`
	AckedWin    int      `json:"acked_win,omitempty"`
	MarkedWin   int      `json:"marked_win,omitempty"`
	WinEnd      int32    `json:"win_end,omitempty"`
	Deadline    sim.Time `json:"deadline,omitempty"`
	TimerArmed  bool     `json:"timer_armed,omitempty"`
	TimerAt     sim.Time `json:"timer_at,omitempty"`
	TimerSeq    uint64   `json:"timer_seq,omitempty"`
	LastSend    sim.Time `json:"last_send"`
	FlowletHash uint64   `json:"flowlet_hash"`
	Via         int32    `json:"via"`
	HybVLB      bool     `json:"hyb_vlb,omitempty"`
	CAMarks     int      `json:"ca_marks,omitempty"`
	Route       []int32  `json:"route,omitempty"`
	FixedRoute  []int32  `json:"fixed_route,omitempty"`
}

// connState is one live slab slot.
type connState struct {
	Slot         int32       `json:"slot"`
	FlowSeq      int64       `json:"flow_seq"`
	Src          int32       `json:"src"`
	Dst          int32       `json:"dst"`
	SizeBytes    int64       `json:"size"`
	SizePkts     int32       `json:"size_pkts"`
	StartNs      sim.Time    `json:"start"`
	EndNs        sim.Time    `json:"end,omitempty"`
	Done         bool        `json:"done,omitempty"`
	Hidden       bool        `json:"hidden,omitempty"`
	ParentSlot   int32       `json:"parent_slot"`
	ChildrenLeft int         `json:"children_left,omitempty"`
	InFlight     int32       `json:"in_flight,omitempty"`
	IsParent     bool        `json:"is_parent,omitempty"`
	Snd          senderState `json:"snd"`
	RcvNxt       int32       `json:"rcv_nxt"`
	OOO          []int32     `json:"ooo,omitempty"`
}

// Checkpoint is a complete JSON-serializable snapshot of a netsim run
// between Run calls.
type Checkpoint struct {
	Version int      `json:"version"`
	Cfg     Config   `json:"cfg"`
	Now     sim.Time `json:"now"`
	EngSeq  uint64   `json:"eng_seq"`
	EngDone uint64   `json:"eng_done"` // events executed, so Processed() stays continuous
	// EngHeapHigh is the engine's heap-depth high water, so a resumed run's
	// LoopStats reports the depth the uninterrupted run would (absent from
	// older checkpoints, which resume with the restored depth as the mark).
	EngHeapHigh int     `json:"eng_heap_high,omitempty"`
	RNG         sim.RNG `json:"rng"`

	FlowSeq  int64   `json:"flow_seq"`
	Started  int64   `json:"started"`
	Ended    int64   `json:"ended"`
	SlabFree []int32 `json:"slab_free"`
	SlabNext int32   `json:"slab_next"`

	Conns []connState `json:"conns"`
	Links []linkState `json:"links"`

	Sketch  *stats.Sketch  `json:"sketch"`
	Moments *stats.Moments `json:"moments"`

	TotalDrops         uint64 `json:"total_drops,omitempty"`
	DataHops           uint64 `json:"data_hops,omitempty"`
	DataDelivered      uint64 `json:"data_delivered,omitempty"`
	PktsInjected       uint64 `json:"pkts_injected,omitempty"`
	PktsDelivered      uint64 `json:"pkts_delivered,omitempty"`
	DataBytesInjected  uint64 `json:"data_bytes_injected,omitempty"`
	DataBytesDelivered uint64 `json:"data_bytes_delivered,omitempty"`

	// Driver is opaque caller state (e.g. workload.Runner's position)
	// carried alongside the simulator's own.
	Driver json.RawMessage `json:"driver,omitempty"`
}

// netsimCheckpointVersion guards the snapshot schema.
const netsimCheckpointVersion = 1

// Checkpoint snapshots the simulation between Run calls.
func (n *Network) Checkpoint(driver json.RawMessage) (*Checkpoint, error) {
	if !n.Cfg.DiscardCompleted {
		return nil, fmt.Errorf("netsim: checkpoint requires DiscardCompleted mode")
	}
	if n.pendingArrivals > 0 {
		return nil, fmt.Errorf("netsim: checkpoint with %d ScheduleFlow closures pending; inject arrivals between Run calls instead", n.pendingArrivals)
	}
	free, next := n.conns.FreeList()
	cp := &Checkpoint{
		Version:     netsimCheckpointVersion,
		Cfg:         n.Cfg,
		Now:         n.Eng.Now(),
		EngSeq:      n.Eng.SeqClock(),
		EngDone:     n.Eng.Processed(),
		EngHeapHigh: n.Eng.Stats().HeapHighWater,
		RNG:         *n.rng,
		FlowSeq:     n.flowSeq,
		Started:     n.started,
		Ended:       n.ended,
		SlabFree:    free,
		SlabNext:    next,
		Sketch:      n.fctSketch,
		Moments:     n.fctMoments,

		TotalDrops:         n.TotalDrops,
		DataHops:           n.DataHops,
		DataDelivered:      n.DataDelivered,
		PktsInjected:       n.PktsInjected,
		PktsDelivered:      n.PktsDelivered,
		DataBytesInjected:  n.DataBytesInjected,
		DataBytesDelivered: n.DataBytesDelivered,
		Driver:             driver,
	}
	n.conns.Range(func(slot int32, c *conn) bool {
		cs := connState{
			Slot:         slot,
			FlowSeq:      c.flow.Seq,
			Src:          c.flow.SrcServer,
			Dst:          c.flow.DstServer,
			SizeBytes:    c.flow.SizeBytes,
			SizePkts:     c.flow.SizePkts,
			StartNs:      c.flow.StartNs,
			EndNs:        c.flow.EndNs,
			Done:         c.flow.Done,
			Hidden:       c.flow.Hidden,
			ParentSlot:   c.flow.parentSlot,
			ChildrenLeft: c.flow.childrenLeft,
			InFlight:     c.inFlight,
			IsParent:     c.isParent,
			RcvNxt:       c.rcv.rcvNxt,
		}
		if !c.isParent {
			s := &c.snd
			cs.Snd = senderState{
				Cwnd: s.cwnd, Ssthresh: s.ssthresh, SndUna: s.sndUna,
				NextSeq: s.nextSeq, DupAcks: s.dupAcks, Alpha: s.alpha,
				AckedWin: s.ackedWin, MarkedWin: s.markedWin, WinEnd: s.winEnd,
				Deadline: s.deadline, TimerArmed: s.timerArmed,
				TimerAt: s.timerAt, TimerSeq: s.timerSeq,
				LastSend: s.lastSend, FlowletHash: s.flowletHash, Via: s.via,
				HybVLB: s.hybVLB, CAMarks: s.caMarks,
				Route: s.route, FixedRoute: s.fixedRoute,
			}
		}
		for seq := range c.rcv.ooo {
			cs.OOO = append(cs.OOO, seq)
		}
		sort.Slice(cs.OOO, func(i, j int) bool { return cs.OOO[i] < cs.OOO[j] })
		cp.Conns = append(cp.Conns, cs)
		return true
	})
	cp.Links = make([]linkState, len(n.allLinks))
	for i, l := range n.allLinks {
		ls := &cp.Links[i]
		for qi := l.head; qi < len(l.queue); qi++ {
			ls.Queue = append(ls.Queue, capturePacket(l.queue[qi]))
		}
		if l.busy {
			st := capturePacket(l.txPkt)
			ls.TxPkt = &st
			ls.TxAt = l.txAt
			ls.TxSeq = l.txSeq
		}
		for ti := l.transitHead; ti < len(l.transit); ti++ {
			tr := l.transit[ti]
			ls.Transit = append(ls.Transit, transitState{P: capturePacket(tr.p), At: tr.at, Seq: tr.seq})
		}
		ls.Transmitted = l.Transmitted
		ls.Dropped = l.Dropped
		ls.Marked = l.Marked
		ls.BytesTx = l.BytesTx
		ls.MaxQueue = l.MaxQueue
	}
	return cp, nil
}

// Restore rebuilds a freshly constructed Network (same topology, identical
// config) from a checkpoint, re-arming every pending event under its
// original (time, seq) key so the continuation is bit-identical.
func (n *Network) Restore(cp *Checkpoint) error {
	if cp.Version != netsimCheckpointVersion {
		return fmt.Errorf("netsim: checkpoint version %d, want %d", cp.Version, netsimCheckpointVersion)
	}
	if n.Cfg != cp.Cfg {
		return fmt.Errorf("netsim: checkpoint config %+v does not match network config %+v", cp.Cfg, n.Cfg)
	}
	if !n.Cfg.DiscardCompleted {
		return fmt.Errorf("netsim: restore requires DiscardCompleted mode")
	}
	if n.Eng.Processed() != 0 || n.flowSeq != 0 {
		return fmt.Errorf("netsim: restore requires a freshly constructed network")
	}
	if len(cp.Links) != len(n.allLinks) {
		return fmt.Errorf("netsim: checkpoint has %d links, network has %d (topology mismatch)", len(cp.Links), len(n.allLinks))
	}
	n.Eng.SetClock(cp.Now, cp.EngSeq)
	n.Eng.SetProcessed(cp.EngDone)
	n.Eng.SetHeapHighWater(cp.EngHeapHigh)
	*n.rng = cp.RNG
	n.flowSeq = cp.FlowSeq
	n.started = cp.Started
	n.ended = cp.Ended
	if cp.Sketch != nil {
		n.fctSketch = cp.Sketch
	}
	if cp.Moments != nil {
		n.fctMoments = cp.Moments
	}
	n.TotalDrops = cp.TotalDrops
	n.DataHops = cp.DataHops
	n.DataDelivered = cp.DataDelivered
	n.PktsInjected = cp.PktsInjected
	n.PktsDelivered = cp.PktsDelivered
	n.DataBytesInjected = cp.DataBytesInjected
	n.DataBytesDelivered = cp.DataBytesDelivered

	n.conns.Restore(cp.SlabFree, cp.SlabNext)
	for _, cs := range cp.Conns {
		if !n.conns.Live(cs.Slot) {
			return fmt.Errorf("netsim: checkpoint conn in non-live slot %d", cs.Slot)
		}
		c := n.conns.At(cs.Slot)
		c.flow = Flow{
			ID:           cs.Slot,
			Seq:          cs.FlowSeq,
			SrcServer:    cs.Src,
			DstServer:    cs.Dst,
			SizeBytes:    cs.SizeBytes,
			SizePkts:     cs.SizePkts,
			StartNs:      cs.StartNs,
			EndNs:        cs.EndNs,
			Done:         cs.Done,
			Hidden:       cs.Hidden,
			parentSlot:   cs.ParentSlot,
			childrenLeft: cs.ChildrenLeft,
		}
		c.inFlight = cs.InFlight
		c.isParent = cs.IsParent
		c.rcv.reset()
		c.rcv.rcvNxt = cs.RcvNxt
		for _, seq := range cs.OOO {
			if c.rcv.ooo == nil {
				c.rcv.ooo = make(map[int32]struct{})
			}
			c.rcv.ooo[seq] = struct{}{}
		}
		if cs.IsParent {
			c.snd = sender{}
			continue
		}
		ss := cs.Snd
		c.snd = sender{
			n: n, f: &c.flow,
			cwnd: ss.Cwnd, ssthresh: ss.Ssthresh, sndUna: ss.SndUna,
			nextSeq: ss.NextSeq, dupAcks: ss.DupAcks, alpha: ss.Alpha,
			ackedWin: ss.AckedWin, markedWin: ss.MarkedWin, winEnd: ss.WinEnd,
			deadline: ss.Deadline, timerArmed: ss.TimerArmed,
			timerAt: ss.TimerAt, timerSeq: ss.TimerSeq,
			lastSend: ss.LastSend, flowletHash: ss.FlowletHash, via: ss.Via,
			hybVLB: ss.HybVLB, caMarks: ss.CAMarks,
			route: ss.Route, fixedRoute: ss.FixedRoute,
		}
		if ss.TimerArmed {
			n.Eng.SchedulePacketExact(ss.TimerAt, ss.TimerSeq, senderTimerFire, &c.snd)
		}
	}

	for i, l := range n.allLinks {
		ls := &cp.Links[i]
		l.queue = l.queue[:0]
		l.head = 0
		for qi := range ls.Queue {
			p := n.pool.get()
			ls.Queue[qi].restore(p)
			l.queue = append(l.queue, p)
		}
		l.busy = ls.TxPkt != nil
		l.txPkt = nil
		if ls.TxPkt != nil {
			p := n.pool.get()
			ls.TxPkt.restore(p)
			l.txPkt = p
			l.txAt = ls.TxAt
			l.txSeq = ls.TxSeq
			n.Eng.SchedulePacketExact(ls.TxAt, ls.TxSeq, l.txDoneFn, p)
		}
		l.transit = l.transit[:0]
		l.transitHead = 0
		for ti := range ls.Transit {
			tr := &ls.Transit[ti]
			p := n.pool.get()
			tr.P.restore(p)
			l.transit = append(l.transit, linkTransit{p: p, at: tr.At, seq: tr.Seq})
			n.Eng.SchedulePacketExact(tr.At, tr.Seq, l.deliverFn, p)
		}
		l.Transmitted = ls.Transmitted
		l.Dropped = ls.Dropped
		l.Marked = ls.Marked
		l.BytesTx = ls.BytesTx
		l.MaxQueue = ls.MaxQueue
	}
	return nil
}
