package netsim

import (
	"fmt"

	"beyondft/internal/sim"
	"beyondft/internal/slab"
	"beyondft/internal/stats"
	"beyondft/internal/topology"
)

// Network wires a topology into a runnable packet simulation: hosts with
// DCTCP transports, switches with per-destination ECMP next-hop tables, and
// output-queued links everywhere.
//
// Flow state lives in a slab: each flow's record, DCTCP sender and receiver
// share one slab slot (a conn), addressed by Flow.ID. In DiscardCompleted
// mode the slot is recycled once the flow completes and its last packet has
// drained, so a run's footprint is its peak concurrency — the slab
// high-water mark — not its total flow count; completion statistics stream
// into a mergeable sketch instead of a retained slice.
type Network struct {
	Eng  *sim.Engine
	Cfg  Config
	Topo *topology.Topology

	numSwitches int
	numServers  int
	serverTor   []int32 // global server id -> ToR switch

	hostUp   []*Link // server -> its ToR
	hostDown []*Link // ToR -> server

	// nextHop[u][dst] lists the candidate out-links of switch u on shortest
	// paths toward switch dst.
	nextHop [][][]*Link
	// linkTo[u][v] is the directed link from switch u to neighbor v.
	linkTo     []map[int]*Link
	interLinks []*Link
	// allLinks is every link in deterministic construction order (host up,
	// host down, inter-switch); allLinks[l.id] == l. Checkpoints address
	// link state through it.
	allLinks []*Link

	// kspCache holds the k shortest switch-level paths per (src,dst) ToR
	// pair, computed lazily for KSP/MPTCP routing. It is bounded to
	// Cfg.KSPCacheEntries pairs with FIFO eviction (kspOrder[kspHead:] is the
	// insertion order) so large MPTCP sweeps cannot grow it without limit.
	kspCache map[[2]int32][][]int32
	kspOrder [][2]int32
	kspHead  int

	rng  *sim.RNG
	pool packetPool

	conns   *slab.Slab[conn]
	flowSeq int64 // flows ever started (slab slots recycle; this does not)
	started int64
	ended   int64

	// flows retains every flow record in arrival order — only when
	// DiscardCompleted is off (the legacy mode; Flows() serves it).
	flows []*Flow

	fctSketch  *stats.Sketch
	fctMoments *stats.Moments
	onComplete func(*Flow)

	// pendingArrivals counts ScheduleFlow closures not yet fired; checkpoints
	// refuse while any exist (closures cannot be serialized — drivers that
	// checkpoint must inject flows between Run calls, as workload.Runner does).
	pendingArrivals int

	// TotalDrops counts packets lost to full queues anywhere.
	TotalDrops uint64
	// DataHops counts switch visits by data packets; DataDelivered counts
	// data packets reaching their destination server. Their ratio is the
	// average path length actually taken (ECMP ~ shortest, VLB ~ 2x).
	DataHops      uint64
	DataDelivered uint64

	// Conservation counters (see internal/validate): every packet handed to
	// a host NIC is injected; every packet consumed at a host is delivered.
	// Once the event queue drains, injected == delivered + TotalDrops.
	PktsInjected  uint64
	PktsDelivered uint64
	// Wire-byte accounting for data packets: delivered can never exceed
	// injected, and delivered must cover every flow's payload at least once.
	DataBytesInjected  uint64
	DataBytesDelivered uint64
}

// conn is one slab slot: a flow, its transport endpoints and the in-flight
// packet count that gates slot recycling.
type conn struct {
	flow Flow
	snd  sender
	rcv  receiver
	// inFlight counts this flow's packets (data and ACK) currently inside
	// the network — queued, in service, or propagating. A slot recycles only
	// at zero, so no live packet can ever reference a recycled flow.
	inFlight int32
	// isParent marks an MPTCP aggregate record that owns no transport.
	isParent bool
}

// LoopStats exposes the underlying event engine's loop statistics (events
// processed, heap-depth high water, simulated/wall time) for observability:
// together with the packet counters below, it answers "how hard did this
// run work" without any per-packet bookkeeping beyond what sim already
// keeps.
func (n *Network) LoopStats() sim.LoopStats { return n.Eng.Stats() }

// Flow is one transfer and its completion record.
type Flow struct {
	ID        int32 // slab slot; recycled in DiscardCompleted mode
	Seq       int64 // monotonic start ordinal, never recycled
	SrcServer int32
	DstServer int32
	SizeBytes int64
	SizePkts  int32
	StartNs   sim.Time
	EndNs     sim.Time
	Done      bool

	// MPTCP bookkeeping: subflows are Hidden children of a parent flow that
	// completes when the last child does.
	Hidden       bool
	parentSlot   int32 // slab slot of the parent flow; -1 for none
	childrenLeft int
}

// FCT returns the flow completion time; only valid when Done.
func (f *Flow) FCT() sim.Time { return f.EndNs - f.StartNs }

// NewNetwork builds the simulation for a topology. Every switch pair linked
// in the topology gets a pair of directed links (trunks become one link of
// aggregated rate); every server gets an up and a down link to its ToR.
func NewNetwork(t *topology.Topology, cfg Config) *Network {
	eng := sim.NewEngine()
	n := &Network{
		Eng:         eng,
		Cfg:         cfg,
		Topo:        t,
		numSwitches: t.NumSwitches(),
		rng:         sim.NewRNG(cfg.Seed),
		conns:       slab.New[conn](1024),
		fctSketch:   stats.NewSketch(cfg.SketchAlpha),
		fctMoments:  stats.NewMoments(),
	}
	serverTorInt := t.ServerSwitch()
	n.numServers = len(serverTorInt)
	n.serverTor = make([]int32, n.numServers)
	for i, sw := range serverTorInt {
		n.serverTor[i] = int32(sw)
	}

	// Host links.
	n.hostUp = make([]*Link, n.numServers)
	n.hostDown = make([]*Link, n.numServers)
	srvRate := cfg.serverLinkRate()
	for s := 0; s < n.numServers; s++ {
		s := s
		tor := int(n.serverTor[s])
		n.hostUp[s] = newLink(eng, srvRate, cfg.PropagationDelayNs,
			cfg.QueueCapPackets, cfg.ECNThresholdPackets,
			func(p *Packet) { n.atSwitch(int32(tor), p) },
			n.onDrop)
		n.hostUp[s].isHostUplink = true
		n.hostDown[s] = newLink(eng, srvRate, cfg.PropagationDelayNs,
			cfg.QueueCapPackets, cfg.ECNThresholdPackets,
			func(p *Packet) { n.atHost(int32(s), p) },
			n.onDrop)
	}

	// Inter-switch links and next-hop tables.
	swLink := make([]map[int]*Link, n.numSwitches)
	for u := 0; u < n.numSwitches; u++ {
		swLink[u] = make(map[int]*Link)
	}
	for _, e := range t.G.Edges() {
		u, v, mult := e.U, e.V, e.Mult
		mk := func(from, to int) *Link {
			to32 := int32(to)
			l := newLink(eng, cfg.LinkRateGbps*float64(mult), cfg.PropagationDelayNs,
				cfg.QueueCapPackets, cfg.ECNThresholdPackets,
				func(p *Packet) { n.atSwitch(to32, p) },
				n.onDrop)
			n.interLinks = append(n.interLinks, l)
			return l
		}
		swLink[u][v] = mk(u, v)
		swLink[v][u] = mk(v, u)
	}
	n.linkTo = swLink
	n.kspCache = make(map[[2]int32][][]int32)
	n.nextHop = make([][][]*Link, n.numSwitches)
	for dst := 0; dst < n.numSwitches; dst++ {
		hops := t.G.ShortestPathDAGNextHops(dst)
		for u := 0; u < n.numSwitches; u++ {
			if n.nextHop[u] == nil {
				n.nextHop[u] = make([][]*Link, n.numSwitches)
			}
			if u == dst {
				continue
			}
			links := make([]*Link, 0, len(hops[u]))
			for _, v := range hops[u] {
				links = append(links, swLink[u][v])
			}
			if len(links) == 0 {
				panic(fmt.Sprintf("netsim: switch %d cannot reach %d", u, dst))
			}
			n.nextHop[u][dst] = links
		}
	}

	// Deterministic link enumeration for checkpoints.
	n.allLinks = make([]*Link, 0, 2*n.numServers+len(n.interLinks))
	n.allLinks = append(n.allLinks, n.hostUp...)
	n.allLinks = append(n.allLinks, n.hostDown...)
	n.allLinks = append(n.allLinks, n.interLinks...)
	for i, l := range n.allLinks {
		l.id = int32(i)
	}
	return n
}

// Flows returns all flows started so far (retain mode only; empty when
// DiscardCompleted streams them out instead).
func (n *Network) Flows() []*Flow { return n.flows }

// FlowsStarted returns the number of flows ever started (MPTCP parents
// count once; their hidden subflows do not).
func (n *Network) FlowsStarted() int64 { return n.started }

// FCTSketch returns the streaming FCT sketch (nanoseconds) over completed
// non-hidden flows.
func (n *Network) FCTSketch() *stats.Sketch { return n.fctSketch }

// FCTMoments returns the streaming FCT moments (nanoseconds) over completed
// non-hidden flows.
func (n *Network) FCTMoments() *stats.Moments { return n.fctMoments }

// SetOnComplete registers a callback invoked at every non-hidden flow's
// completion instant, before its state is recycled. Drivers in
// DiscardCompleted mode use it to classify flows into their own statistics.
func (n *Network) SetOnComplete(fn func(*Flow)) { n.onComplete = fn }

// SlabHighWater returns the peak number of concurrently allocated conn
// slots — the quantity that bounds flow-state memory regardless of how many
// flows have passed through.
func (n *Network) SlabHighWater() int { return n.conns.HighWater() }

// connAt returns the conn in slot id.
func (n *Network) connAt(id int32) *conn { return n.conns.At(id) }

func (n *Network) onDrop(p *Packet) {
	n.TotalDrops++
	n.release(p)
}

// release returns a packet to the pool and credits its flow's in-flight
// count; the last packet out triggers slot recycling for completed flows.
func (n *Network) release(p *Packet) {
	c := n.conns.At(p.FlowID)
	c.inFlight--
	n.pool.put(p)
	if c.flow.Done {
		n.tryRecycle(c)
	}
}

// tryRecycle frees a completed flow's slot once nothing can reference it:
// no packet in flight and no pending retransmission timer. Retain mode
// never recycles (Flows() owns the records).
func (n *Network) tryRecycle(c *conn) {
	if !n.Cfg.DiscardCompleted {
		return
	}
	if !c.flow.Done || c.inFlight > 0 || c.snd.timerArmed {
		return
	}
	n.conns.Free(c.flow.ID)
}

// inject hands a packet to its sending host's NIC, counting it for the
// packet-conservation audit. All transmissions (data and ACK) enter the
// network through here.
func (n *Network) inject(host int32, p *Packet) {
	n.PktsInjected++
	if !p.IsAck {
		n.DataBytesInjected += uint64(p.SizeBytes)
	}
	n.conns.At(p.FlowID).inFlight++
	n.hostUp[host].Enqueue(p)
}

// atSwitch routes a packet arriving at (or injected into) switch u.
func (n *Network) atSwitch(u int32, p *Packet) {
	if !p.IsAck {
		n.DataHops++
	}
	if p.Route != nil {
		if u == p.DstSwitch {
			n.hostDown[p.DstServer].Enqueue(p)
			return
		}
		// Advance the source route: Route[Hop] is the current switch.
		if p.Route[p.Hop] != u {
			panic(fmt.Sprintf("netsim: source route desync at switch %d (route %v, hop %d)",
				u, p.Route, p.Hop))
		}
		next := int(p.Route[p.Hop+1])
		p.Hop++
		n.linkTo[u][next].Enqueue(p)
		return
	}
	target := p.DstSwitch
	if p.ViaSwitch >= 0 && !p.ViaReached {
		if u == p.ViaSwitch {
			p.ViaReached = true
		} else {
			target = p.ViaSwitch
		}
	}
	if target == u {
		if u == p.DstSwitch {
			n.hostDown[p.DstServer].Enqueue(p)
			return
		}
		// Reached the via point exactly; continue toward the destination.
		target = p.DstSwitch
	}
	choices := n.nextHop[u][target]
	h := splitmix64(p.PathHash ^ (uint64(u) << 20) ^ uint64(target))
	choices[int(h%uint64(len(choices)))].Enqueue(p)
}

// atHost delivers a packet to a server: ACKs go to the flow's sender, data
// to its receiver (which responds with an ACK).
func (n *Network) atHost(host int32, p *Packet) {
	n.PktsDelivered++
	c := n.conns.At(p.FlowID)
	if p.IsAck {
		c.snd.onAck(p)
		n.release(p)
		return
	}
	n.DataDelivered++
	n.DataBytesDelivered += uint64(p.SizeBytes)
	c.rcv.onData(n, p)
	n.release(p)
}

// StartFlow injects a flow of sizeBytes from srcServer to dstServer at the
// current simulation time and returns its record. Under MPTCP routing,
// large flows are split into subflows pinned to distinct shortest paths;
// the returned parent flow completes when the last subflow does.
//
// In DiscardCompleted mode the returned *Flow is valid only until the flow
// completes (its slot recycles); use SetOnComplete to observe completions.
func (n *Network) StartFlow(srcServer, dstServer int, sizeBytes int64) *Flow {
	if srcServer == dstServer {
		panic("netsim: flow to self")
	}
	if n.Cfg.Routing == MPTCP {
		return n.startMPTCP(srcServer, dstServer, sizeBytes)
	}
	return n.startSingleFlow(srcServer, dstServer, sizeBytes, nil, -1)
}

// allocConn takes a slab slot and initializes its flow record. Recycled
// slots retain buffers (the receiver's out-of-order set) but every field
// read is re-initialized here.
func (n *Network) allocConn(srcServer, dstServer int, sizeBytes int64, pkts int32,
	hidden bool, parentSlot int32) *conn {
	slot, c := n.conns.Alloc()
	c.flow = Flow{
		ID:         slot,
		Seq:        n.flowSeq,
		SrcServer:  int32(srcServer),
		DstServer:  int32(dstServer),
		SizeBytes:  sizeBytes,
		SizePkts:   pkts,
		StartNs:    n.Eng.Now(),
		Hidden:     hidden,
		parentSlot: parentSlot,
	}
	n.flowSeq++
	c.inFlight = 0
	c.isParent = false
	if !hidden {
		n.started++
	}
	if !n.Cfg.DiscardCompleted {
		n.flows = append(n.flows, &c.flow)
	}
	return c
}

// startSingleFlow creates one transport flow; route pins it to a source
// route (MPTCP subflows), parentSlot links it to an aggregate flow record.
func (n *Network) startSingleFlow(srcServer, dstServer int, sizeBytes int64,
	route []int32, parentSlot int32) *Flow {
	payload := int64(n.Cfg.PayloadBytes)
	pkts := (sizeBytes + payload - 1) / payload
	if pkts == 0 {
		pkts = 1
	}
	c := n.allocConn(srcServer, dstServer, sizeBytes, int32(pkts),
		parentSlot >= 0, parentSlot)
	initSender(&c.snd, n, &c.flow)
	c.snd.fixedRoute = route
	c.rcv.reset()
	c.snd.start()
	return &c.flow
}

// startMPTCP splits a flow across subflows on distinct k-shortest paths.
func (n *Network) startMPTCP(srcServer, dstServer int, sizeBytes int64) *Flow {
	srcTor := n.serverTor[srcServer]
	dstTor := n.serverTor[dstServer]
	paths := n.kspPaths(srcTor, dstTor)
	k := n.Cfg.MPTCPSubflows
	if k < 1 {
		k = 1
	}
	if k > len(paths) {
		k = len(paths)
	}
	payload := int64(n.Cfg.PayloadBytes)
	// Tiny flows gain nothing from splitting.
	if sizeBytes <= payload*int64(k) || k == 1 || srcTor == dstTor {
		route := []int32(nil)
		if len(paths) > 0 && srcTor != dstTor {
			route = paths[0]
		}
		return n.startSingleFlow(srcServer, dstServer, sizeBytes, route, -1)
	}
	pc := n.allocConn(srcServer, dstServer, sizeBytes,
		int32((sizeBytes+payload-1)/payload), false, -1)
	pc.isParent = true // aggregate record: owns no transport
	pc.flow.childrenLeft = k
	pc.snd = sender{}
	parentSlot := pc.flow.ID
	per := sizeBytes / int64(k)
	for i := 0; i < k; i++ {
		sz := per
		if i == k-1 {
			sz = sizeBytes - per*int64(k-1)
		}
		n.startSingleFlow(srcServer, dstServer, sz, paths[i%len(paths)], parentSlot)
	}
	return &pc.flow
}

// flowCompleted finalizes a flow and propagates completion to MPTCP parents.
func (n *Network) flowCompleted(c *conn) {
	c.flow.Done = true
	c.flow.EndNs = n.Eng.Now()
	n.recordCompletion(&c.flow)
	n.tryRecycle(c)
	if ps := c.flow.parentSlot; ps >= 0 {
		pc := n.conns.At(ps)
		pc.flow.childrenLeft--
		if pc.flow.childrenLeft == 0 {
			pc.flow.Done = true
			pc.flow.EndNs = n.Eng.Now()
			n.recordCompletion(&pc.flow)
			n.tryRecycle(pc)
		}
	}
}

// recordCompletion streams a completed non-hidden flow into the FCT sketch
// and fires the completion callback.
func (n *Network) recordCompletion(f *Flow) {
	if f.Hidden {
		return
	}
	n.ended++
	fct := float64(f.FCT())
	n.fctSketch.Add(fct)
	n.fctMoments.Add(fct)
	if n.onComplete != nil {
		n.onComplete(f)
	}
}

// kspPaths returns (and caches) up to Cfg.KSPPaths loopless shortest paths
// between two ToRs as int32 switch sequences. The cache is bounded to
// Cfg.KSPCacheEntries (src,dst) pairs; when full, the oldest entry is
// evicted first — deterministic, and recomputation is cheap relative to a
// large MPTCP sweep's working set cycling through many pairs.
func (n *Network) kspPaths(srcTor, dstTor int32) [][]int32 {
	key := [2]int32{srcTor, dstTor}
	if paths, ok := n.kspCache[key]; ok {
		return paths
	}
	k := n.Cfg.KSPPaths
	if k < 1 {
		k = 1
	}
	raw := n.Topo.G.KShortestPaths(int(srcTor), int(dstTor), k)
	paths := make([][]int32, 0, len(raw))
	for _, p := range raw {
		conv := make([]int32, len(p))
		for i, v := range p {
			conv[i] = int32(v)
		}
		paths = append(paths, conv)
	}
	if max := n.Cfg.kspCacheEntries(); len(n.kspCache) >= max {
		oldest := n.kspOrder[n.kspHead]
		n.kspHead++
		delete(n.kspCache, oldest)
		// Compact the order slice once the dead prefix dominates.
		if n.kspHead > 64 && n.kspHead*2 >= len(n.kspOrder) {
			n.kspOrder = append(n.kspOrder[:0], n.kspOrder[n.kspHead:]...)
			n.kspHead = 0
		}
	}
	n.kspCache[key] = paths
	n.kspOrder = append(n.kspOrder, key)
	return paths
}

// ScheduleFlow injects a flow at absolute time at.
func (n *Network) ScheduleFlow(at sim.Time, srcServer, dstServer int, sizeBytes int64) {
	n.pendingArrivals++
	n.Eng.Schedule(at, func() {
		n.pendingArrivals--
		n.StartFlow(srcServer, dstServer, sizeBytes)
	})
}

// AvgDataPathHops returns the mean number of switches visited per delivered
// data packet.
func (n *Network) AvgDataPathHops() float64 {
	if n.DataDelivered == 0 {
		return 0
	}
	return float64(n.DataHops) / float64(n.DataDelivered)
}

// LinkStats aggregates counters over all inter-switch links.
type LinkStats struct {
	Transmitted uint64
	Dropped     uint64
	Marked      uint64
	BytesTx     uint64
	MaxQueue    int
	Links       int
}

// InterSwitchStats sums the counters of every inter-switch link.
func (n *Network) InterSwitchStats() LinkStats {
	var s LinkStats
	for _, l := range n.interLinks {
		s.Transmitted += l.Transmitted
		s.Dropped += l.Dropped
		s.Marked += l.Marked
		s.BytesTx += l.BytesTx
		if l.MaxQueue > s.MaxQueue {
			s.MaxQueue = l.MaxQueue
		}
		s.Links++
	}
	return s
}

// pickVia selects a VLB intermediate switch: uniform over all switches
// except the source ToR (choosing the destination ToR degenerates to
// shortest-path routing, as in classic Valiant load balancing).
func (n *Network) pickVia(srcTor int32) int32 {
	if n.numSwitches <= 1 {
		return -1
	}
	for {
		v := int32(n.rng.Intn(n.numSwitches))
		if v != srcTor {
			return v
		}
	}
}
