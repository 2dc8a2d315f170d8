// Package flowsim is a flow-level (fluid) simulator complementing the
// packet-level internal/netsim: flows are assigned paths and receive
// max-min fair rates over link capacities, recomputed at every arrival and
// departure. It abstracts away transport dynamics (DCTCP convergence,
// queueing, retransmission) and in exchange simulates paper-scale
// configurations — 1024+ servers at the §6.4 arrival rates — in seconds,
// making it the right tool for first-pass sweeps before confirming shapes
// at packet level.
//
// Routing mirrors netsim's schemes at flow granularity: ECMP pins a flow to
// one sampled shortest path, VLB routes through a random intermediate, and
// HYB sends flows below the Q threshold via ECMP and the rest via VLB.
//
// The simulator is built to reach 10M flows in memory proportional to peak
// concurrency, not flow count (DESIGN.md §13):
//
//   - flows live in an index-addressed slab and, with DiscardCompleted set,
//     recycle their slots (and path buffers) on completion;
//   - FCT statistics stream into a mergeable quantile sketch and a moments
//     accumulator instead of retaining per-flow records;
//   - the per-event sweeps (departure scan, progress integration, max-min
//     refill) run over Config.Shards data-parallel shards with barrier
//     synchronization, and every reduction is order-independent — integer
//     mins and counts, or one FP operation per entity in a fixed order — so
//     a run is bit-identical at any shard count, which the regression suite
//     enforces for {1, 2, 8}.
package flowsim

import (
	"fmt"
	"math"
	"sort"

	"beyondft/internal/sim"
	"beyondft/internal/slab"
	"beyondft/internal/stats"
	"beyondft/internal/topology"
)

// RoutingScheme selects flow-level path assignment.
type RoutingScheme int

// Flow-level analogues of netsim's schemes.
const (
	ECMP RoutingScheme = iota
	VLB
	HYB
)

// Config parameterizes the simulation.
type Config struct {
	LinkRateGbps         float64
	ServerLinkRateGbps   float64 // 0 = same as LinkRateGbps
	Routing              RoutingScheme
	HybridThresholdBytes int64
	Seed                 int64

	// Shards splits the per-event sweeps across worker goroutines; 0 or 1
	// runs serially. Results are bit-identical at any shard count.
	Shards int

	// DiscardCompleted frees a flow's slab slot at completion, after the
	// OnComplete callback: memory then tracks peak concurrency instead of
	// total flow count, and Flows() omits completed flows.
	DiscardCompleted bool

	// SketchAlpha is the FCT sketch's relative accuracy (0 = the
	// stats.DefaultSketchAlpha 1%).
	SketchAlpha float64
}

// DefaultConfig mirrors netsim's §6.4 defaults at flow level.
func DefaultConfig() Config {
	return Config{
		LinkRateGbps:         10,
		Routing:              ECMP,
		HybridThresholdBytes: 100_000,
		Seed:                 1,
	}
}

// Flow is one transfer. Flows are slab-allocated; pointers handed out by
// Flows() and OnComplete are stable, but with DiscardCompleted set a
// completed flow's slot (and its struct) is recycled once OnComplete
// returns — callers must copy what they need.
type Flow struct {
	ID        int32 // start order, dense from 0
	SrcServer int32
	DstServer int32
	SizeBytes int64
	StartNs   sim.Time
	EndNs     sim.Time
	Done      bool

	remaining float64 // bytes
	rate      float64 // bits/ns (Gbps)
	links     []int32 // path link ids; buffer reused across slot recycling
}

// FCT returns the completion time; valid when Done.
func (f *Flow) FCT() sim.Time { return f.EndNs - f.StartNs }

// shard owns the flows with ID % Shards == its index. Its active list stays
// in ascending flow-ID order by construction: IDs are assigned in start
// order, so appends keep it sorted, and completions compact in place.
type shard struct {
	active    []int32 // live slab slots, ascending flow ID
	completed []int32 // slots that finished at the current instant

	// Per-phase reduction outputs (read by the coordinator after a barrier).
	minDep    sim.Time
	bestShare float64
	bestLink  int32
	frozen    int
	linkLo    int32 // owned link range [linkLo, linkHi) for link phases
	linkHi    int32
}

// Network is the flow-level simulation state.
type Network struct {
	Cfg  Config
	Topo *topology.Topology

	now       sim.Time
	rng       *sim.RNG
	serverTor []int32

	// Directed links: 0..2E-1 inter-switch (pairs), then per-server up and
	// down links. capacity in Gbps (== bits/ns).
	capacity []float64
	upLink   []int32
	downLink []int32

	// CSR shortest-path next hops: for (u -> dst) the candidate next-hop
	// switches are nhTo[nhStart[dst*S+u] : nhStart[dst*S+u+1]], and nhLink
	// carries the corresponding u->v link ids, eliminating map lookups on
	// the path-sampling hot path.
	nhStart []int32
	nhTo    []int32
	nhLink  []int32

	flowSlab *slab.Slab[Flow]
	shards   []shard
	pool     *workerPool // nil when serial
	started  int64
	finished int64

	flows []*Flow // retain mode: every flow in start order

	pending arrivalHeap
	arrSeq  int64

	dirty bool

	// allocate() scratch, persistent so the steady state allocates nothing.
	capScratch   []float64
	flowCount    []int32
	frozenCount  []int32
	completedBuf []int32

	// Phase inputs shared with shard workers (written by the coordinator
	// between barriers only).
	phaseDT    float64
	phaseShare float64
	phaseLink  int32

	fctSketch  *stats.Sketch
	fctMoments *stats.Moments

	// Event-loop statistics, carried through checkpoints: event instants
	// processed, max-min reallocation rounds and the arrival-heap high water.
	loopEvents    uint64
	allocRounds   uint64
	heapHighWater int
}

type arrival struct {
	at   sim.Time
	seq  int64 // insertion order, for FIFO tie-breaking at equal times
	src  int32
	dst  int32
	size int64
}

// arrivalHeap is a binary min-heap of arrivals ordered by (at, seq), so
// out-of-order ScheduleFlow calls cost O(log n) instead of the worst-case
// quadratic insertion shuffle, and equal-time arrivals start in call order.
type arrivalHeap []arrival

func arrivalLess(a, b arrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *arrivalHeap) push(a arrival) {
	s := append(*h, a)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !arrivalLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *arrivalHeap) pop() arrival {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && arrivalLess(s[r], s[l]) {
			m = r
		}
		if !arrivalLess(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// NewNetwork builds the flow-level model of a topology.
func NewNetwork(t *topology.Topology, cfg Config) *Network {
	n := &Network{
		Cfg:        cfg,
		Topo:       t,
		rng:        sim.NewRNG(cfg.Seed),
		flowSlab:   slab.New[Flow](1024),
		fctSketch:  stats.NewSketch(cfg.SketchAlpha),
		fctMoments: stats.NewMoments(),
	}
	for _, sw := range t.ServerSwitch() {
		n.serverTor = append(n.serverTor, int32(sw))
	}
	linkIdx := make(map[[2]int32]int32)
	for _, e := range t.G.Edges() {
		c := float64(e.Mult) * cfg.LinkRateGbps
		linkIdx[[2]int32{int32(e.U), int32(e.V)}] = int32(len(n.capacity))
		n.capacity = append(n.capacity, c)
		linkIdx[[2]int32{int32(e.V), int32(e.U)}] = int32(len(n.capacity))
		n.capacity = append(n.capacity, c)
	}
	srvRate := cfg.ServerLinkRateGbps
	if srvRate <= 0 {
		srvRate = cfg.LinkRateGbps
	}
	for range n.serverTor {
		n.upLink = append(n.upLink, int32(len(n.capacity)))
		n.capacity = append(n.capacity, srvRate)
		n.downLink = append(n.downLink, int32(len(n.capacity)))
		n.capacity = append(n.capacity, srvRate)
	}
	// Flatten the shortest-path next-hop DAG into CSR arrays, grouped by
	// destination so each destination fills contiguously in one pass.
	S := t.NumSwitches()
	n.nhStart = make([]int32, S*S+1)
	for dst := 0; dst < S; dst++ {
		hops := t.G.ShortestPathDAGNextHops(dst)
		for u := 0; u < S; u++ {
			for _, v := range hops[u] {
				n.nhTo = append(n.nhTo, int32(v))
				n.nhLink = append(n.nhLink, linkIdx[[2]int32{int32(u), int32(v)}])
			}
			n.nhStart[dst*S+u+1] = int32(len(n.nhTo))
		}
	}

	n.capScratch = make([]float64, len(n.capacity))
	n.flowCount = make([]int32, len(n.capacity))
	n.frozenCount = make([]int32, len(n.capacity))

	ns := cfg.Shards
	if ns < 1 {
		ns = 1
	}
	n.shards = make([]shard, ns)
	L := int32(len(n.capacity))
	for s := range n.shards {
		n.shards[s].linkLo = int32(s) * L / int32(ns)
		n.shards[s].linkHi = int32(s+1) * L / int32(ns)
	}
	if ns > 1 {
		n.pool = newWorkerPool(n, ns)
	}
	return n
}

// Close stops the shard worker goroutines (no-op when serial). The network
// remains usable for queries but not further Run calls with Shards > 1.
func (n *Network) Close() {
	if n.pool != nil {
		n.pool.stop()
		n.pool = nil
	}
}

// Now returns the current simulated time.
func (n *Network) Now() sim.Time { return n.now }

// Flows returns all flows started so far in start order. With
// DiscardCompleted set, completed flows have been recycled and the slice is
// not maintained — use OnComplete and the FCT sketch instead.
func (n *Network) Flows() []*Flow { return n.flows }

// ActiveFlows returns the number of currently active flows.
func (n *Network) ActiveFlows() int {
	total := 0
	for s := range n.shards {
		total += len(n.shards[s].active)
	}
	return total
}

// Started returns the number of flows started so far.
func (n *Network) Started() int64 { return n.started }

// Completed returns the number of flows finished so far.
func (n *Network) Completed() int64 { return n.finished }

// FCTSketch returns the streaming sketch of completed-flow FCTs in
// nanoseconds. It is live: merges of or additions to the returned sketch
// corrupt the simulation's statistics.
func (n *Network) FCTSketch() *stats.Sketch { return n.fctSketch }

// SlabHighWater returns the peak live-slot count — the number that bounds
// flow memory regardless of total flows started.
func (n *Network) SlabHighWater() int { return n.flowSlab.HighWater() }

// nextHopRange returns the CSR slice bounds for switch u toward dst.
func (n *Network) nextHopRange(u, dst int32) (int32, int32) {
	base := int(dst)*n.Topo.NumSwitches() + int(u)
	return n.nhStart[base], n.nhStart[base+1]
}

// samplePath walks a uniformly sampled shortest path from switch u to dst,
// appending traversed link IDs.
func (n *Network) samplePath(u, dst int32, links []int32) []int32 {
	for u != dst {
		lo, hi := n.nextHopRange(u, dst)
		if lo == hi {
			panic(fmt.Sprintf("flowsim: no route %d -> %d", u, dst))
		}
		i := lo + int32(n.rng.Intn(int(hi-lo)))
		links = append(links, n.nhLink[i])
		u = n.nhTo[i]
	}
	return links
}

// assignPath routes a flow per the configured scheme, reusing the flow's
// link buffer (recycled slots keep their slice capacity, so the steady
// state allocates no path storage).
func (n *Network) assignPath(f *Flow) {
	src := n.serverTor[f.SrcServer]
	dst := n.serverTor[f.DstServer]
	links := append(f.links[:0], n.upLink[f.SrcServer])
	useVLB := n.Cfg.Routing == VLB ||
		(n.Cfg.Routing == HYB && f.SizeBytes >= n.Cfg.HybridThresholdBytes)
	if useVLB && src != dst {
		var via int32
		for {
			via = int32(n.rng.Intn(n.Topo.NumSwitches()))
			if via != src {
				break
			}
		}
		links = n.samplePath(src, via, links)
		links = n.samplePath(via, dst, links)
	} else {
		links = n.samplePath(src, dst, links)
	}
	links = append(links, n.downLink[f.DstServer])
	f.links = links
}

// ScheduleFlow queues a flow arrival at absolute time at.
func (n *Network) ScheduleFlow(at sim.Time, src, dst int, size int64) {
	if at < n.now {
		at = n.now
	}
	n.arrSeq++
	n.pending.push(arrival{at: at, seq: n.arrSeq, src: int32(src), dst: int32(dst), size: size})
	if len(n.pending) > n.heapHighWater {
		n.heapHighWater = len(n.pending)
	}
}

func (n *Network) startFlow(a arrival) {
	slot, f := n.flowSlab.Alloc()
	links := f.links // recycled slots donate their path buffer
	*f = Flow{
		ID:        int32(n.started),
		SrcServer: a.src,
		DstServer: a.dst,
		SizeBytes: a.size,
		StartNs:   n.now,
		remaining: float64(a.size),
		links:     links,
	}
	n.started++
	n.assignPath(f)
	if !n.Cfg.DiscardCompleted {
		n.flows = append(n.flows, f)
	}
	sh := &n.shards[int(f.ID)%len(n.shards)]
	sh.active = append(sh.active, slot)
	n.dirty = true
}

// completeEps is the residual (in bytes) below which a flow counts as
// finished: it absorbs the floating-point slack left by integrating progress
// to a departure instant that was rounded up to the integer-ns clock.
const completeEps = 1e-6

// Shard phase codes dispatched through the worker pool. Every phase is a
// pure data-parallel sweep over a shard's flows or owned link range; the
// coordinator reduces the per-shard outputs between barriers with
// order-independent operations (integer min, integer sum, lexicographic
// (share, link-id) min), which is what makes results shard-count-invariant.
const (
	phaseDepartScan = iota
	phaseIntegrate
	phaseCollectComplete
	phaseAllocReset
	phaseLinkScan
	phaseFreeze
	phaseCapUpdate
)

// runPhase executes one phase across all shards, inline when serial.
func (n *Network) runPhase(p int) {
	if n.pool == nil {
		for s := range n.shards {
			n.phase(p, s)
		}
		return
	}
	n.pool.dispatch(p)
}

// phase runs one phase for one shard. Shard workers only ever touch their
// own flows (slots in sh.active) and their owned link range, plus
// read-only shared state and the phase inputs set by the coordinator.
func (n *Network) phase(p, si int) {
	sh := &n.shards[si]
	switch p {
	case phaseDepartScan:
		minDep := sim.Time(math.MaxInt64)
		for _, slot := range sh.active {
			f := n.flowSlab.At(slot)
			if f.rate <= 0 {
				continue
			}
			// remaining bytes at rate bits/ns -> ns, rounded up to the clock.
			dt := sim.Time(math.Ceil(f.remaining * 8 / f.rate))
			if dt < 1 {
				dt = 1
			}
			if t := n.now + dt; t < minDep {
				minDep = t
			}
		}
		sh.minDep = minDep
	case phaseIntegrate:
		dt := n.phaseDT
		for _, slot := range sh.active {
			f := n.flowSlab.At(slot)
			if f.rate > 0 {
				f.remaining -= f.rate * dt / 8
			}
		}
	case phaseCollectComplete:
		sh.completed = sh.completed[:0]
		kept := sh.active[:0]
		for _, slot := range sh.active {
			if n.flowSlab.At(slot).remaining <= completeEps {
				sh.completed = append(sh.completed, slot)
			} else {
				kept = append(kept, slot)
			}
		}
		sh.active = kept
	case phaseAllocReset:
		if n.pool == nil {
			for _, slot := range sh.active {
				f := n.flowSlab.At(slot)
				f.rate = -1
				for _, l := range f.links {
					n.flowCount[l]++
				}
			}
			return
		}
		for _, slot := range sh.active {
			f := n.flowSlab.At(slot)
			f.rate = -1
			for _, l := range f.links {
				atomicAddInt32(&n.flowCount[l], 1)
			}
		}
	case phaseLinkScan:
		best := int32(-1)
		bestShare := math.Inf(1)
		for l := sh.linkLo; l < sh.linkHi; l++ {
			c := n.flowCount[l]
			if c == 0 {
				continue
			}
			share := n.capScratch[l] / float64(c)
			if share < bestShare {
				bestShare = share
				best = l
			}
		}
		sh.bestShare, sh.bestLink = bestShare, best
	case phaseFreeze:
		frozen := 0
		best := n.phaseLink
		share := n.phaseShare
		for _, slot := range sh.active {
			f := n.flowSlab.At(slot)
			if f.rate >= 0 {
				continue
			}
			crosses := false
			for _, l := range f.links {
				if l == best {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			f.rate = share
			frozen++
			if n.pool == nil {
				for _, l := range f.links {
					n.frozenCount[l]++
				}
			} else {
				for _, l := range f.links {
					atomicAddInt32(&n.frozenCount[l], 1)
				}
			}
		}
		sh.frozen = frozen
	case phaseCapUpdate:
		share := n.phaseShare
		for l := sh.linkLo; l < sh.linkHi; l++ {
			if fc := n.frozenCount[l]; fc != 0 {
				// One multiply per link instead of one subtraction per frozen
				// flow: the result is independent of which shard froze which
				// flow, the keystone of shard-count invariance.
				n.capScratch[l] -= share * float64(fc)
				if n.capScratch[l] < 0 {
					n.capScratch[l] = 0
				}
				n.flowCount[l] -= fc
				n.frozenCount[l] = 0
			}
		}
	}
}

// allocate computes exact max-min fair rates via progressive filling.
// Bottleneck links freeze in (share, link-id) lexicographic order; frozen
// capacity leaves a link as a single share×count multiply. Both rules are
// independent of flow iteration order, so any shard count produces
// bit-identical rates.
func (n *Network) allocate() {
	copy(n.capScratch, n.capacity)
	n.runPhase(phaseAllocReset)
	unfrozen := n.ActiveFlows()
	n.allocRounds++
	for unfrozen > 0 {
		n.runPhase(phaseLinkScan)
		best := int32(-1)
		bestShare := math.Inf(1)
		for s := range n.shards {
			sh := &n.shards[s]
			if sh.bestLink < 0 {
				continue
			}
			if sh.bestShare < bestShare || (sh.bestShare == bestShare && sh.bestLink < best) {
				bestShare, best = sh.bestShare, sh.bestLink
			}
		}
		if best < 0 {
			break
		}
		n.phaseShare, n.phaseLink = bestShare, best
		n.runPhase(phaseFreeze)
		for s := range n.shards {
			unfrozen -= n.shards[s].frozen
		}
		n.runPhase(phaseCapUpdate)
	}
	n.dirty = false
}

// Run advances the simulation to the given horizon.
//
// Departure times are rounded UP to the integer-nanosecond clock (a flow
// cannot be done before its last byte is served), so a flow whose ideal FCT
// is an integral number of nanoseconds completes exactly on time. At every
// event instant — departure OR arrival — every flow whose residual is within
// completeEps finishes, in ID order; an arrival tying with a departure can
// no longer postpone the completion by an extra allocation round.
func (n *Network) Run(until sim.Time) {
	for n.now < until {
		if n.dirty {
			n.allocate()
		}
		// Earliest departure instant across shards (integer min).
		n.runPhase(phaseDepartScan)
		nextEvent := until
		eventDue := false
		for s := range n.shards {
			if t := n.shards[s].minDep; t <= nextEvent {
				if t < nextEvent {
					nextEvent = t
				}
				eventDue = true
			}
		}
		// Earliest arrival may pull the event forward or tie with it.
		if len(n.pending) > 0 && n.pending[0].at <= nextEvent {
			nextEvent = n.pending[0].at
			eventDue = true
		}
		// Integrate progress over [now, nextEvent); per-flow, order-free.
		if dt := float64(nextEvent - n.now); dt > 0 {
			n.phaseDT = dt
			n.runPhase(phaseIntegrate)
		}
		n.now = nextEvent
		if !eventDue {
			return // horizon reached
		}
		n.loopEvents++
		// Complete every flow that has finished by this instant, in ID order.
		n.runPhase(phaseCollectComplete)
		n.completedBuf = n.completedBuf[:0]
		for s := range n.shards {
			n.completedBuf = append(n.completedBuf, n.shards[s].completed...)
		}
		if len(n.completedBuf) > 0 {
			if len(n.shards) > 1 {
				sort.Slice(n.completedBuf, func(i, j int) bool {
					return n.flowSlab.At(n.completedBuf[i]).ID < n.flowSlab.At(n.completedBuf[j]).ID
				})
			}
			for _, slot := range n.completedBuf {
				f := n.flowSlab.At(slot)
				f.remaining = 0
				f.Done = true
				f.EndNs = n.now
				n.finished++
				fct := float64(f.FCT())
				n.fctSketch.Add(fct)
				n.fctMoments.Add(fct)
				if n.Cfg.DiscardCompleted {
					n.flowSlab.Free(slot)
				}
			}
			n.dirty = true
		}
		// Start every arrival due at this instant, in (at, seq) order — the
		// coordinator draws all path RNG, so the draw sequence matches the
		// serial simulator exactly.
		for len(n.pending) > 0 && n.pending[0].at <= n.now {
			n.startFlow(n.pending.pop())
		}
	}
}

// AuditAllocation verifies the max-min fair allocation invariants at the
// current instant (recomputing it first if stale):
//
//   - every active flow holds a strictly positive rate (work conservation:
//     no flow starves while capacity remains),
//   - no link carries more than its capacity (capacity conservation), and
//   - every active flow crosses at least one saturated link (the max-min
//     certificate: a flow's rate could not be raised without displacing
//     another flow).
//
// It returns nil when all three hold within floating-point tolerance.
func (n *Network) AuditAllocation() error {
	if n.dirty {
		n.allocate()
	}
	const relEps = 1e-6
	load := make([]float64, len(n.capacity))
	var audit error
	n.eachActive(func(f *Flow) {
		if f.rate <= 0 && audit == nil {
			audit = fmt.Errorf("flowsim: active flow %d has rate %g (work conservation violated)", f.ID, f.rate)
		}
		for _, l := range f.links {
			load[l] += f.rate
		}
	})
	if audit != nil {
		return audit
	}
	for l, ld := range load {
		if c := n.capacity[l]; ld > c*(1+relEps)+relEps {
			return fmt.Errorf("flowsim: link %d carries %g Gbps over capacity %g", l, ld, c)
		}
	}
	n.eachActive(func(f *Flow) {
		if audit != nil {
			return
		}
		bottlenecked := false
		for _, l := range f.links {
			if load[l] >= n.capacity[l]*(1-relEps)-relEps {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			audit = fmt.Errorf("flowsim: flow %d crosses no saturated link (rate %g not max-min)", f.ID, f.rate)
		}
	})
	return audit
}

// eachActive visits every active flow (any order; used for audits only).
func (n *Network) eachActive(fn func(*Flow)) {
	for s := range n.shards {
		for _, slot := range n.shards[s].active {
			fn(n.flowSlab.At(slot))
		}
	}
}
