package netsim

import (
	"beyondft/internal/sim"
)

// sender is the DCTCP transport endpoint (Alizadeh et al., SIGCOMM'10):
// window-based TCP with per-window multiplicative reduction by α/2, where α
// is an EWMA of the fraction of ECN-marked ACKs. Loss recovery is
// go-back-N, triggered by triple duplicate ACKs or an RTO.
//
// The sender also owns routing decisions: flowlets (50 µs gap) re-roll the
// ECMP path hash and, under VLB/HYB, the Valiant intermediate.
//
// Senders live inside conn slab slots and are re-initialized in place by
// initSender when a slot is (re)allocated.
type sender struct {
	n *Network
	f *Flow

	cwnd     float64 // packets
	ssthresh float64
	sndUna   int32 // lowest unacknowledged seq
	nextSeq  int32 // next seq to transmit
	dupAcks  int

	// DCTCP α state.
	alpha     float64
	ackedWin  int
	markedWin int
	winEnd    int32 // when sndUna passes winEnd, fold the window stats

	// Lazy retransmission timer. deadline is the logical timeout; timerAt
	// and timerSeq are the (time, seq) key of the one pending engine event,
	// recorded so checkpoints can re-arm it exactly.
	deadline   sim.Time
	timerArmed bool
	timerAt    sim.Time
	timerSeq   uint64

	// Flowlet and routing state.
	lastSend    sim.Time
	flowletHash uint64
	via         int32
	hybVLB      bool    // HYB/HYBCA has triggered and uses VLB for new flowlets
	caMarks     int     // HYBCA: ECN marks seen while still on ECMP
	route       []int32 // current flowlet's source route (KSP/MPTCP)
	fixedRoute  []int32 // MPTCP: subflow pinned to one path for its lifetime
}

// initSender re-initializes a (possibly recycled) sender in place.
func initSender(s *sender, n *Network, f *Flow) {
	*s = sender{
		n:        n,
		f:        f,
		cwnd:     n.Cfg.InitialWindowPackets,
		ssthresh: 1 << 20,
		via:      -1,
		lastSend: -sim.Time(1 << 60),
	}
}

func (s *sender) start() {
	s.newFlowlet()
	s.trySend()
}

// newFlowlet re-rolls the path hash and routing mode for the next flowlet.
func (s *sender) newFlowlet() {
	s.flowletHash = s.n.rng.Uint64()
	s.via = -1
	s.route = nil
	if s.fixedRoute != nil { // MPTCP subflow: pinned for its lifetime
		s.route = s.fixedRoute
		return
	}
	mode := s.n.Cfg.Routing
	switch {
	case mode == VLB, (mode == HYB || mode == HYBCA) && s.hybVLB:
		s.via = s.n.pickVia(s.n.serverTor[s.f.SrcServer])
	case mode == KSP:
		srcTor := s.n.serverTor[s.f.SrcServer]
		dstTor := s.n.serverTor[s.f.DstServer]
		if srcTor != dstTor {
			paths := s.n.kspPaths(srcTor, dstTor)
			if len(paths) > 0 {
				s.route = paths[int(s.flowletHash%uint64(len(paths)))]
			}
		}
	}
}

// trySend transmits as long as the window allows.
func (s *sender) trySend() {
	for s.nextSeq < s.f.SizePkts && int32(s.cwnd) > s.nextSeq-s.sndUna {
		s.sendPacket(s.nextSeq)
		s.nextSeq++
	}
}

func (s *sender) sendPacket(seq int32) {
	now := s.n.Eng.Now()
	cfg := &s.n.Cfg

	// HYB Q-threshold: crossing it forces a flowlet boundary so the switch
	// to VLB happens even for continuously backlogged flows.
	if cfg.Routing == HYB && !s.hybVLB {
		if int64(seq)*int64(cfg.PayloadBytes) >= cfg.HybridThresholdBytes {
			s.hybVLB = true
			s.newFlowlet()
		}
	}
	if now-s.lastSend > sim.Time(cfg.FlowletGapNs) {
		s.newFlowlet()
	}
	s.lastSend = now

	size := int32(cfg.MTUBytes)
	if seq == s.f.SizePkts-1 {
		lastPayload := s.f.SizeBytes - int64(s.f.SizePkts-1)*int64(cfg.PayloadBytes)
		size = int32(lastPayload) + int32(cfg.MTUBytes-cfg.PayloadBytes)
	}
	p := s.n.pool.get()
	p.FlowID = s.f.ID
	p.Seq = seq
	p.SizeBytes = size
	p.SrcServer = s.f.SrcServer
	p.DstServer = s.f.DstServer
	p.DstSwitch = s.n.serverTor[s.f.DstServer]
	p.ViaSwitch = s.via
	p.PathHash = s.flowletHash
	p.Route = s.route
	p.Hop = 0
	s.n.inject(s.f.SrcServer, p)
	s.armTimer()
}

// armTimer (re)sets the lazy RTO: at most one pending timer event exists;
// when it fires early (deadline has moved), it re-schedules itself.
func (s *sender) armTimer() {
	s.deadline = s.n.Eng.Now() + sim.Time(s.n.Cfg.MinRTONs)
	if s.timerArmed {
		return
	}
	s.timerArmed = true
	s.timerAt = s.deadline
	s.timerSeq = s.n.Eng.SchedulePacket(s.deadline, senderTimerFire, s)
}

// senderTimerFire is the RTO timer's event handler: one static function
// with the sender as its argument, so arming a timer allocates nothing (a
// method value s.timerFire would be a fresh closure each time). Senders sit
// in conn slab slots, whose addresses never move.
func senderTimerFire(arg any) { arg.(*sender).timerFire() }

func (s *sender) timerFire() {
	if s.f.Done {
		s.timerArmed = false
		// The timer was the last reference holding this slot alive.
		s.n.tryRecycle(s.n.conns.At(s.f.ID))
		return
	}
	now := s.n.Eng.Now()
	if now < s.deadline {
		s.timerAt = s.deadline
		s.timerSeq = s.n.Eng.SchedulePacket(s.deadline, senderTimerFire, s)
		return
	}
	s.timerArmed = false
	if s.sndUna >= s.nextSeq {
		return // nothing outstanding
	}
	// Timeout: go-back-N from sndUna.
	s.ssthresh = maxf(s.cwnd/2, 2)
	s.cwnd = 1
	s.dupAcks = 0
	s.nextSeq = s.sndUna
	s.newFlowlet()
	s.trySend()
}

func (s *sender) onAck(p *Packet) {
	if s.f.Done {
		return
	}
	// DCTCP α accounting over every ACK (cumulative or duplicate).
	s.ackedWin++
	if p.ECNEcho {
		s.markedWin++
		// Exit slow start immediately on the first congestion signal.
		if s.cwnd < s.ssthresh {
			s.ssthresh = s.cwnd
		}
		// HYBCA: enough IN-NETWORK congestion on shortest paths -> VLB.
		if p.ECNEchoNet && s.n.Cfg.Routing == HYBCA && !s.hybVLB {
			s.caMarks++
			if s.caMarks >= s.n.Cfg.CAMarkThreshold {
				s.hybVLB = true
				s.newFlowlet()
			}
		}
	}
	if p.AckSeq > s.sndUna {
		newly := float64(p.AckSeq - s.sndUna)
		s.sndUna = p.AckSeq
		s.dupAcks = 0
		// Window-boundary α fold and reduction.
		if s.sndUna >= s.winEnd {
			frac := 0.0
			if s.ackedWin > 0 {
				frac = float64(s.markedWin) / float64(s.ackedWin)
			}
			g := s.n.Cfg.DCTCPGain
			s.alpha = (1-g)*s.alpha + g*frac
			if s.markedWin > 0 {
				s.cwnd = maxf(1, s.cwnd*(1-s.alpha/2))
				s.ssthresh = s.cwnd
			}
			s.ackedWin, s.markedWin = 0, 0
			s.winEnd = s.nextSeq
		}
		// Growth.
		if s.cwnd < s.ssthresh {
			s.cwnd += newly
		} else {
			s.cwnd += newly / s.cwnd
		}
		if s.sndUna >= s.f.SizePkts {
			s.n.flowCompleted(s.n.conns.At(s.f.ID))
			return
		}
		s.armTimer()
		s.trySend()
		return
	}
	// Duplicate ACK.
	s.dupAcks++
	if s.dupAcks == 3 {
		s.dupAcks = 0
		s.ssthresh = maxf(s.cwnd/2, 2)
		s.cwnd = s.ssthresh
		s.nextSeq = s.sndUna // go-back-N
		s.newFlowlet()
		s.trySend()
	}
}

// receiver tracks in-order delivery with out-of-order buffering (selective
// buffering keeps benign flowlet reordering from triggering go-back-N), and
// acknowledges every data packet, echoing its CE mark. The out-of-order map
// is retained across slot recycling (it is empty at flow completion).
type receiver struct {
	rcvNxt int32
	ooo    map[int32]struct{}
}

// reset prepares a (possibly recycled) receiver for a new flow. The
// out-of-order set is always empty when a flow completes, but clearing it
// here (a no-op then) keeps a stale entry from ever corrupting a new flow.
func (r *receiver) reset() {
	r.rcvNxt = 0
	for k := range r.ooo {
		delete(r.ooo, k)
	}
}

func (r *receiver) onData(n *Network, p *Packet) {
	if p.Seq == r.rcvNxt {
		r.rcvNxt++
		for r.ooo != nil {
			if _, ok := r.ooo[r.rcvNxt]; !ok {
				break
			}
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt++
		}
	} else if p.Seq > r.rcvNxt {
		if r.ooo == nil {
			r.ooo = make(map[int32]struct{})
		}
		r.ooo[p.Seq] = struct{}{}
	}
	ack := n.pool.get()
	ack.FlowID = p.FlowID
	ack.IsAck = true
	ack.AckSeq = r.rcvNxt
	ack.ECNEcho = p.CE
	ack.ECNEchoNet = p.CE && !p.CEAtHost
	ack.SizeBytes = int32(n.Cfg.AckBytes)
	ack.SrcServer = p.DstServer
	ack.DstServer = p.SrcServer
	ack.DstSwitch = n.serverTor[p.SrcServer]
	ack.ViaSwitch = -1
	ack.PathHash = splitmix64(uint64(p.FlowID)*0x9e3779b97f4a7c15 + 0x1234)
	n.inject(p.DstServer, ack)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
