// Package rotornet models RotorNet (Mellette et al., SIGCOMM 2017), the
// traffic-agnostic dynamic topology §8 of the paper discusses and defers
// comparing against static expanders — implemented here as that deferred
// comparison (see the fig-rotor extension experiment).
//
// Model: N ToRs, each with `Ports` rotor uplinks. The rotor switches cycle
// through a fixed round-robin schedule of N−1 perfect matchings; during a
// slot, a ToR can send directly to the ToRs it is currently matched with,
// and (RotorLB) use spare slot capacity to offload queued traffic one hop
// to a matched neighbor, which later delivers it directly. Reconfiguration
// blanks the link for ReconfigNs at each slot boundary.
//
// The simulation is slotted and byte-granular (virtual output queues hold
// per-flow byte chunks); flow completion has slot resolution. That is the
// right fidelity for RotorNet's known trade-off — excellent bulk throughput,
// slot-scale latency floors for small flows — which is precisely the §8
// caveat ("accommodating latency-sensitive traffic").
package rotornet

import (
	"fmt"

	"beyondft/internal/sim"
)

// Config parameterizes a RotorNet fabric.
type Config struct {
	NumToRs       int
	ServersPerToR int
	Ports         int     // rotor uplinks per ToR
	LinkRateGbps  float64 // per uplink
	SlotNs        int64   // matching slot duration (paper-ish: ~100 µs)
	ReconfigNs    int64   // blanked time per slot boundary (~10 µs)
	TwoHop        bool    // RotorLB one-hop offload
}

// DefaultConfig returns a RotorNet with the duty cycle ProjecToR/RotorNet
// discussions assume (~90%).
func DefaultConfig(numToRs, serversPerToR, ports int) Config {
	return Config{
		NumToRs:       numToRs,
		ServersPerToR: serversPerToR,
		Ports:         ports,
		LinkRateGbps:  10,
		SlotNs:        100_000,
		ReconfigNs:    10_000,
		TwoHop:        true,
	}
}

// Flow is one ToR-to-ToR transfer.
type Flow struct {
	ID        int32
	SrcToR    int
	DstToR    int
	SizeBytes int64
	StartNs   sim.Time
	EndNs     sim.Time
	Done      bool
}

// FCT returns the flow completion time; valid when Done.
func (f *Flow) FCT() sim.Time { return f.EndNs - f.StartNs }

// chunk is a contiguous span of a flow's bytes inside a VOQ.
type chunk struct {
	flow    int32
	bytes   int64
	relayed bool // already took its RotorLB hop
}

// voq is a FIFO of chunks destined to one final ToR.
type voq struct {
	chunks []chunk
	head   int
	bytes  int64
}

func (q *voq) push(c chunk) {
	q.chunks = append(q.chunks, c)
	q.bytes += c.bytes
}

func (q *voq) compact() {
	if q.head > 32 && q.head*2 >= len(q.chunks) {
		n := copy(q.chunks, q.chunks[q.head:])
		q.chunks = q.chunks[:n]
		q.head = 0
	}
}

// Network is a runnable RotorNet simulation.
type Network struct {
	Eng *sim.Engine
	Cfg Config

	matchings [][]int // matchings[r][i] = peer of ToR i in round r (-1 = bye)
	voqs      [][]voq // voqs[i][dst]
	flows     []*Flow
	delivered []int64
	slot      int64
	running   bool

	// Stats.
	DirectBytes uint64
	RelayBytes  uint64
}

// NewNetwork builds the fabric and its matching schedule.
func NewNetwork(cfg Config) *Network {
	if cfg.NumToRs < 2 || cfg.Ports < 1 {
		panic(fmt.Sprintf("rotornet: invalid config %+v", cfg))
	}
	n := &Network{
		Eng:       sim.NewEngine(),
		Cfg:       cfg,
		matchings: roundRobinSchedule(cfg.NumToRs),
		voqs:      make([][]voq, cfg.NumToRs),
	}
	for i := range n.voqs {
		n.voqs[i] = make([]voq, cfg.NumToRs)
	}
	return n
}

// roundRobinSchedule returns the circle-method tournament schedule: for even
// N, N−1 perfect matchings that together cover every ToR pair exactly once.
// Odd N gets a bye (-1) per round.
func roundRobinSchedule(n int) [][]int {
	m := n
	odd := n%2 == 1
	if odd {
		m = n + 1 // phantom player = bye
	}
	rounds := make([][]int, m-1)
	for r := 0; r < m-1; r++ {
		peer := make([]int, n)
		for i := range peer {
			peer[i] = -1
		}
		pairUp := func(a, b int) {
			if a < n && b < n {
				peer[a] = b
				peer[b] = a
			}
		}
		// Fixed player m-1; the rest rotate.
		pairUp(m-1, r)
		for k := 1; k < m/2; k++ {
			a := (r + k) % (m - 1)
			b := (r - k + (m - 1)) % (m - 1)
			pairUp(a, b)
		}
		rounds[r] = peer
	}
	return rounds
}

// ToROfServer maps a global server ID to its ToR.
func (n *Network) ToROfServer(server int) int { return server / n.Cfg.ServersPerToR }

// Flows returns all flows started so far.
func (n *Network) Flows() []*Flow { return n.flows }

// StartFlow injects a ToR-level transfer at the current simulated time.
func (n *Network) StartFlow(srcToR, dstToR int, sizeBytes int64) *Flow {
	if srcToR == dstToR {
		panic("rotornet: flow to self")
	}
	f := &Flow{
		ID:        int32(len(n.flows)),
		SrcToR:    srcToR,
		DstToR:    dstToR,
		SizeBytes: sizeBytes,
		StartNs:   n.Eng.Now(),
	}
	n.flows = append(n.flows, f)
	n.delivered = append(n.delivered, 0)
	n.voqs[srcToR][dstToR].push(chunk{flow: f.ID, bytes: sizeBytes})
	n.ensureTicking()
	return f
}

// StartServerFlow injects a flow between two servers (ToR-level delivery;
// server NICs are not modelled — a documented simplification).
func (n *Network) StartServerFlow(srcServer, dstServer int, sizeBytes int64) *Flow {
	return n.StartFlow(n.ToROfServer(srcServer), n.ToROfServer(dstServer), sizeBytes)
}

func (n *Network) ensureTicking() {
	if n.running {
		return
	}
	n.running = true
	// Align the first tick to the next slot boundary.
	slotNs := sim.Time(n.Cfg.SlotNs)
	next := (n.Eng.Now()/slotNs + 1) * slotNs
	n.Eng.Schedule(next, n.tick)
}

// matchingFor returns the round index used by port p at slot s: ports are
// staggered across the schedule so a ToR is concurrently matched with
// several distinct peers.
func (n *Network) matchingFor(s int64, p int) []int {
	rounds := len(n.matchings)
	stride := rounds / n.Cfg.Ports
	if stride == 0 {
		stride = 1
	}
	return n.matchings[(int(s)+p*stride)%rounds]
}

// tick advances one slot: every ToR sends on every port.
func (n *Network) tick() {
	slotBytes := int64(float64(n.Cfg.SlotNs-n.Cfg.ReconfigNs) * n.Cfg.LinkRateGbps / 8)
	deliverAt := n.Eng.Now() + sim.Time(n.Cfg.SlotNs)
	for p := 0; p < n.Cfg.Ports; p++ {
		match := n.matchingFor(n.slot, p)
		for i := 0; i < n.Cfg.NumToRs; i++ {
			peer := match[i]
			if peer < 0 {
				continue
			}
			capLeft := slotBytes
			// Direct delivery: the VOQ destined exactly to the peer.
			capLeft = n.drainDirect(i, peer, capLeft, deliverAt)
			// RotorLB: spend spare capacity offloading the longest other
			// VOQs one hop to the peer.
			if n.Cfg.TwoHop && capLeft > 0 {
				n.offload(i, peer, capLeft)
			}
		}
	}
	n.slot++
	if n.pendingBytes() > 0 {
		n.Eng.After(sim.Time(n.Cfg.SlotNs), n.tick)
	} else {
		n.running = false
	}
}

// drainDirect delivers up to capLeft bytes from voqs[i][peer] at the peer.
func (n *Network) drainDirect(i, peer int, capLeft int64, deliverAt sim.Time) int64 {
	q := &n.voqs[i][peer]
	for capLeft > 0 && q.head < len(q.chunks) {
		c := &q.chunks[q.head]
		take := c.bytes
		if take > capLeft {
			take = capLeft
		}
		c.bytes -= take
		q.bytes -= take
		capLeft -= take
		n.DirectBytes += uint64(take)
		n.deliver(c.flow, take, deliverAt)
		if c.bytes == 0 {
			q.head++
		}
	}
	q.compact()
	return capLeft
}

// offload moves un-relayed bytes from i's longest VOQs to the peer's VOQs
// (one RotorLB hop), consuming the remaining slot capacity.
func (n *Network) offload(i, peer int, capLeft int64) {
	for capLeft > 0 {
		// Pick the longest VOQ with un-relayed bytes (excluding the peer's
		// own VOQ, which direct drain already emptied or capped).
		best, bestBytes := -1, int64(0)
		for dst := 0; dst < n.Cfg.NumToRs; dst++ {
			if dst == peer || dst == i {
				continue
			}
			if b := n.unrelayedBytes(i, dst); b > bestBytes {
				best, bestBytes = dst, b
			}
		}
		if best < 0 {
			return
		}
		q := &n.voqs[i][best]
		for capLeft > 0 && q.head < len(q.chunks) {
			c := &q.chunks[q.head]
			if c.relayed {
				break // FIFO order: a relayed chunk heads the queue
			}
			take := c.bytes
			if take > capLeft {
				take = capLeft
			}
			c.bytes -= take
			q.bytes -= take
			capLeft -= take
			n.RelayBytes += uint64(take)
			n.voqs[peer][best].push(chunk{flow: c.flow, bytes: take, relayed: true})
			if c.bytes == 0 {
				q.head++
			}
		}
		q.compact()
		// If the head is now a relayed chunk, this queue has no more
		// offloadable bytes; the next iteration picks another VOQ (or
		// finds none and returns).
	}
}

// unrelayedBytes counts offloadable bytes in voqs[i][dst].
func (n *Network) unrelayedBytes(i, dst int) int64 {
	q := &n.voqs[i][dst]
	var total int64
	for k := q.head; k < len(q.chunks); k++ {
		if q.chunks[k].relayed {
			break
		}
		total += q.chunks[k].bytes
	}
	return total
}

// deliver accounts bytes arriving at a flow's destination ToR.
func (n *Network) deliver(flowID int32, bytes int64, at sim.Time) {
	n.delivered[flowID] += bytes
	f := n.flows[flowID]
	if !f.Done && n.delivered[flowID] >= f.SizeBytes {
		f.Done = true
		f.EndNs = at
	}
}

// pendingBytes returns the total queued bytes across all VOQs.
func (n *Network) pendingBytes() int64 {
	var total int64
	for i := range n.voqs {
		for d := range n.voqs[i] {
			total += n.voqs[i][d].bytes
		}
	}
	return total
}
