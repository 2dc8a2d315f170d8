package fluid

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"beyondft/internal/graph"
	"beyondft/internal/minheap"
)

// GKOptions tunes the Garg–Könemann/Fleischer max-concurrent-flow FPTAS.
type GKOptions struct {
	// Epsilon is the approximation parameter: the returned throughput is at
	// least (1−O(ε)) of optimal. Default 0.08.
	Epsilon float64
	// MaxPhases caps the number of phases as a safety valve. Default 1e6.
	MaxPhases int
	// Workers bounds the goroutines of each phase boundary's sweep, which
	// reads the length function only: per distinct commodity destination,
	// the goal-directed dual-bound queries of the single-destination sources
	// that send to it (on the potential row the previous phase's routing
	// built for it; the first phase builds the rows here, one reverse
	// Dijkstra each), and one full Dijkstra per source with several
	// destinations (per source, for all of them, once the solve routes with
	// Dijkstra alone). Later phases repair or rebuild a destination's row in
	// the routing loop, on one goroutine, right before its first step. 0 means
	// GOMAXPROCS. The result is identical at any worker count.
	Workers int
	// Ctx, if non-nil, is polled at every phase boundary and every
	// gkCtxPollEvery routing iterations within a phase: once it is done the
	// solver stops routing and returns the (still feasible, possibly
	// far-from-optimal) flow accumulated so far. Callers that need to
	// distinguish "converged" from "canceled" check Ctx.Err() after the
	// call — the serving daemon uses this to propagate per-request
	// deadlines and client disconnects into long solves.
	Ctx context.Context
	// WarmStart, when it has exactly one entry per arc of the network,
	// seeds the solver's dual length function from a completed solve of a
	// neighboring instance (see GKResult.Duals) instead of the uniform
	// δ/cap cold start. Entries are rescaled so the starting potential
	// D(l) matches the cold start's, so only the *shape* of the warm
	// lengths carries over; non-positive, NaN or infinite entries fall
	// back to the cold value per-arc. Warm solves terminate on the
	// explicit primal/dual gap certificate (primal ≥ (1−ε)·dual) rather
	// than the potential budget alone, so the returned throughput carries
	// the same (1−ε) guarantee as a cold solve — warm starting can only
	// change how fast it is reached, never the certificate. A wrong-length
	// or nil slice is ignored (cold start).
	WarmStart []float64
	// ExportDuals makes the result carry the final per-arc dual lengths
	// (GKResult.Duals), the state a neighboring scenario's solve warm
	// starts from.
	ExportDuals bool
	// Workspace, if non-nil, lends the solve its arrays (see Workspace); the
	// result is the same with or without one, and owns its Duals either way.
	Workspace *Workspace
	// Observer, if non-nil, receives solver progress (phase boundaries and
	// a final summary). The disabled cost is one interface nil check per
	// phase plus an integer iteration counter — no allocations
	// (BenchmarkGKObserverDisabled asserts 0 allocs/op on the hook path),
	// so PR 2's hot-path wins are untouched.
	Observer GKObserver
}

// GKObserver receives Garg–Könemann solver progress. Implementations must
// be cheap: GKPhase fires once per phase while lengths and flows are
// mid-update, so it must not call back into the solver.
type GKObserver interface {
	// GKPhase fires at every phase boundary, after the phase's dual-bound
	// update and before its routing loop: the 1-based phase number, total
	// routing Dijkstras so far, the current D(l) potential, and the best
	// dual bound observed (OPT ≤ dualBound).
	GKPhase(phase, iterations int, d, dualBound float64)
	// GKDone fires exactly once for every solve that enters the phase loop
	// (degenerate inputs — no commodities, no arcs — skip it), with the
	// final counts and the certified primal/dual pair.
	GKDone(phases, iterations int, primal, dual float64)
}

// GKTelemetry is a ready-made GKObserver for callers that want final
// numbers rather than a stream: it records the last phase snapshot and the
// done summary. Not safe for use across concurrent solves.
type GKTelemetry struct {
	Phases     int
	Iterations int
	Primal     float64
	Dual       float64
	Done       bool
}

// GKPhase implements GKObserver.
func (t *GKTelemetry) GKPhase(phase, iterations int, d, dualBound float64) {
	t.Phases, t.Iterations, t.Dual = phase, iterations, dualBound
}

// GKDone implements GKObserver.
func (t *GKTelemetry) GKDone(phases, iterations int, primal, dual float64) {
	t.Phases, t.Iterations, t.Primal, t.Dual, t.Done = phases, iterations, primal, dual, true
}

// GKResult reports the solve outcome.
type GKResult struct {
	// Throughput is the certified feasible concurrent-flow fraction: every
	// commodity can simultaneously carry Throughput × its demand.
	Throughput float64
	// UpperBound is the best dual bound observed; OPT ≤ UpperBound.
	UpperBound float64
	Phases     int
	// Fallbacks counts the routing steps the heap Dijkstra routed, whole or
	// in part: those whose chain had a tie that only dijkstra's tie order
	// decides (two tails at one least label; a prefix of dijkstra settles
	// it), those whose goal-directed search could not be used at all (the
	// target's label moved after its first expansion), and every step after
	// the solve gave the goal-directed search up. Ties decided by tail labels
	// alone do not count. Always at most the routing step count; the result
	// does not depend on it.
	Fallbacks int
	// Duals holds the final per-arc dual lengths when the solve ran with
	// ExportDuals — the warm-start seed for a neighboring scenario
	// (GKOptions.WarmStart). Nil otherwise.
	Duals []float64
}

// gkDebugBoundary, when non-nil (set only by tests), receives the
// incrementally maintained D(l) = Σ cap·length and the live length function
// at every phase boundary, before the phase's dual-bound step: the drift
// check rescans it, the routing benchmark copies it.
var gkDebugBoundary func(d float64, length []float64)

// gkCtxPollEvery is how many routing Dijkstras run between Ctx polls inside
// a phase. Phases on paper-scale instances run hundreds of routing
// iterations, so phase-boundary-only polling could overrun a deadline by a
// full phase; every-64 keeps the overrun bounded at well under a
// millisecond while the poll itself (one atomic load in context.Context
// implementations) stays invisible next to a Dijkstra.
const gkCtxPollEvery = 64

// warmDLimit bounds how far past the cold potential budget (D ≥ 1) a
// warm-started solve may keep routing while it waits for its primal/dual
// gap certificate. Warm solves on a well-matched neighbor certify within a
// phase or two of D reaching 1; a pathological seed must not loop forever,
// so past this potential the solver returns the (still certified-feasible,
// possibly weaker-than-(1−ε)) primal it has.
const warmDLimit = 64.0

// MaxConcurrentFlow approximates the maximum concurrent flow for the given
// commodities, i.e. the paper's "throughput per server" when demands are in
// server line-rate units.
func MaxConcurrentFlow(nw *Network, comms []Commodity, opt GKOptions) GKResult {
	eps := opt.Epsilon
	if eps <= 0 {
		eps = 0.08
	}
	maxPhases := opt.MaxPhases
	if maxPhases <= 0 {
		maxPhases = 1 << 20
	}
	var buf *gkBuffers
	if opt.Workspace != nil {
		buf = &opt.Workspace.gk
	} else {
		buf = gkPool.Get().(*gkBuffers)
		defer buf.release()
	}
	if cap(buf.live) < len(comms) {
		buf.live = make([]Commodity, 0, len(comms))
	}
	live := buf.live[:0]
	for _, c := range comms {
		if c.Demand > 0 && c.Src != c.Dst {
			live = append(live, c)
		}
	}
	buf.live = live
	if len(live) == 0 {
		return GKResult{Throughput: math.Inf(1), UpperBound: math.Inf(1)}
	}

	m := len(nw.Arcs)
	if m == 0 {
		return GKResult{}
	}
	delta := math.Pow(float64(m)/(1-eps), -1/eps)
	length := zeroed(&buf.length, m)
	// D tracks D(l) = Σ cap·length incrementally: seeded from the initial
	// lengths here, then updated in O(1) at every length bump in the routing
	// loop instead of an O(m) rescan per phase.
	D := 0.0
	for i, a := range nw.Arcs {
		length[i] = delta / a.Cap
		D += a.Cap * length[i]
	}
	// Warm start: adopt the shape of a neighboring solve's final duals,
	// rescaled to the cold starting potential D₀ = δ·m so the potential
	// budget is unchanged. Arcs the neighbor did not have (or invalid
	// entries) keep their cold value.
	warm := false
	if len(opt.WarmStart) == m {
		sum := 0.0
		for i, a := range nw.Arcs {
			if w := opt.WarmStart[i]; w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
				length[i] = w
			}
			sum += a.Cap * length[i]
		}
		scale := D / sum
		D = 0.0
		for i, a := range nw.Arcs {
			length[i] *= scale
			D += a.Cap * length[i]
		}
		warm = true
	}
	flow := zeroed(&buf.flow, m)             // total flow per arc (all commodities)
	routed := zeroed(&buf.routed, len(live)) // total routed per commodity

	// Distinct commodity sources and destinations, each in first-appearance
	// order: sources are nodes[:nSrc], destinations nodes[nSrc:], and
	// srcIndex[v] / dstIndex[v] hold 1 + v's position among them (0 = not
	// one). The dual bound needs one distance per commodity, from its source;
	// routing goal-directed needs a row of potentials per destination.
	index := zeroed(&buf.index, 2*nw.N)
	srcIndex, dstIndex := index[:nw.N], index[nw.N:]
	nSrc, nDst := 0, 0
	for _, c := range live {
		if srcIndex[c.Src] == 0 {
			nSrc++
			srcIndex[c.Src] = int32(nSrc)
		}
		if dstIndex[c.Dst] == 0 {
			nDst++
			dstIndex[c.Dst] = int32(nDst)
		}
	}
	nodes := zeroed(&buf.nodes, nSrc+nDst)
	sources, dsts := nodes[:nSrc], nodes[nSrc:]
	// The live commodities grouped by source, CSR style: source k's are
	// bySrc[srcStart[k]:srcStart[k+1]], as ascending indices into live. Counts
	// go in two slots up, so that after the prefix sum slot k+1 is group k's
	// fill cursor and, once the group is filled, its end.
	srcStart := zeroed(&buf.srcStart, nSrc+2)
	for _, c := range live {
		sources[srcIndex[c.Src]-1] = c.Src
		dsts[dstIndex[c.Dst]-1] = c.Dst
		srcStart[srcIndex[c.Src]+1]++
	}
	for k := 2; k < len(srcStart); k++ {
		srcStart[k] += srcStart[k-1]
	}
	bySrc := zeroed(&buf.bySrc, len(live))
	for j, c := range live {
		k := srcIndex[c.Src]
		bySrc[srcStart[k]] = int32(j)
		srcStart[k]++
	}
	distTo := zeroed(&buf.distTo, len(live)) // this phase's dist_l(src, dst) per live commodity
	// The sources again, grouped the same way by the one destination all
	// their commodities share — destination i's are
	// byDst[dstStart[i]:dstStart[i+1]] — and the sources with several
	// destinations in a last group, nDst. A source with one destination gets
	// its dual-bound distance from a goal-directed query right after that
	// destination's potentials; the others keep a full Dijkstra.
	soleDst := func(k int) int {
		group := bySrc[srcStart[k]:srcStart[k+1]]
		dst := live[group[0]].Dst
		for _, j := range group[1:] {
			if live[j].Dst != dst {
				return nDst
			}
		}
		return int(dstIndex[dst]) - 1
	}
	dstStart := zeroed(&buf.dstStart, nDst+3)
	for k := range nSrc {
		dstStart[soleDst(k)+2]++
	}
	for i := 2; i < len(dstStart); i++ {
		dstStart[i] += dstStart[i-1]
	}
	byDst := zeroed(&buf.byDst, nSrc)
	for k := range nSrc {
		i := soleDst(k) + 1
		byDst[dstStart[i]] = int32(k)
		dstStart[i]++
	}
	// The solve routes goal-directed while sw.goal holds: from the start if
	// its nDst × N potential table is within bounds (and its nodes fit the
	// uint16 entries of order), until the routing loop finds it tie-heavy.
	// The first phase builds the rows from revLen, where revLen[k] is the
	// length of arc k's reverse. From the second on, a cold solve at an ε up
	// to gkRepairMaxEps repairs them, and order holds each row's nodes in
	// ascending order of the row; any other solve rebuilds them, and revLen
	// is kept current at every length bump. rowPhase[i] is the phase that
	// last built or repaired destination i's row of pot.
	var pot, revLen []float64
	var rev []int32
	var order []uint16
	rowPhase := zeroed(&buf.rowPhase, nDst)
	goal := nDst*nw.N <= gkMaxPotentials && nw.N <= 1<<16
	rebuild := warm || eps > gkRepairMaxEps
	if goal {
		gt := buf.takeGoalTables()
		defer gt.release()
		rev, pot, revLen = zeroed(&gt.rev, m), zeroed(&gt.pot, nDst*nw.N), zeroed(&gt.revLen, m)
		if !rebuild {
			order = zeroed(&gt.order, nDst*nw.N)
		}
		reverseArcs(nw, rev)
		for k, r := range rev {
			revLen[k] = length[r]
		}
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nSrc {
		workers = nSrc
	}
	if len(buf.states) < workers {
		buf.states = append(make([]*spState, 0, workers), buf.states...)[:workers]
	}
	states := buf.states[:workers]
	for w, st := range states {
		if st == nil || len(st.dist) != nw.N {
			states[w] = newSPState(nw)
		} else {
			st.nw = nw // every call resets the rest
		}
	}

	sw := &buf.sweep
	*sw = phaseSweep{
		states: states, live: live, length: length, pot: pot, revLen: revLen, distTo: distTo, order: order,
		sources: sources, dsts: dsts, srcStart: srcStart, bySrc: bySrc, dstStart: dstStart, byDst: byDst,
		goal: goal,
	}
	sweep := sw.run // one bound method per solve, not per phase

	dualBound := math.Inf(1)
	sp := states[0] // routing reuses worker 0's scratch between phases
	parent, arcFrom, arcCap := sp.parent, nw.arcFrom, nw.arcCap
	phases := 0
	iters := 0     // routing steps, reported through the observer
	fallbacks := 0 // routing steps the heap Dijkstra took
	canceled := false
	tiedPhase := false // the last phase routed more steps with Dijkstra than it certified
	for phases < maxPhases {
		if D >= 1 {
			// Cold solves stop on the potential budget: the classic analysis
			// certifies (1−O(ε)) at D = 1. A warm seed reshapes the length
			// function, so a warm solve instead runs until the explicit gap
			// certificate closes (primal ≥ (1−ε)·dual), with warmDLimit as
			// the safety valve against pathological seeds.
			if !warm || D >= warmDLimit {
				break
			}
			if p := primalValue(nw, live, flow, routed); !math.IsInf(dualBound, 1) && p >= (1-eps)*dualBound {
				break
			}
		}
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			break // canceled: fall through to the primal value routed so far
		}
		phases++
		if gkDebugBoundary != nil {
			gkDebugBoundary(D, length)
		}
		// Dual bound for this phase: D(l) / Σ_j d_j·dist_l(j). Lengths are
		// read-only within this step, so the sweep fans out across the
		// workers, and the reduction below runs in fixed commodity order, so
		// the result is identical at any worker count. Only the first phase's
		// sweep builds the rows of potentials; later ones query the rows the
		// previous phase's routing built, from lengths no longer than these.
		sw.rows = phases == 1
		graph.ParallelFor(workers, sw.items(), sweep)
		z := 0.0
		for j, c := range live {
			z += c.Demand * distTo[j]
		}
		if z > 0 {
			if b := D / z; b < dualBound {
				dualBound = b
			}
		}
		if opt.Observer != nil {
			opt.Observer.GKPhase(phases, iters, D, dualBound)
		}
		// Early exit once the certified primal is within ε of the dual bound.
		if phases%8 == 0 {
			if p := primalValue(nw, live, flow, routed); p >= (1-eps)*dualBound {
				break
			}
		}
		// Route each commodity's full demand this phase.
		certified, fellBack := 0, 0
	routing:
		for j, c := range live {
			remaining := c.Demand
			for remaining > 1e-15 {
				// Mid-phase deadline poll: a phase routes hundreds of
				// Dijkstras on paper-scale instances, so waiting for the
				// phase boundary could overrun a deadline by a full phase.
				if opt.Ctx != nil && iters > 0 && iters%gkCtxPollEvery == 0 && opt.Ctx.Err() != nil {
					canceled = true
					break routing
				}
				// Only dist[c.Dst] and the parent chain behind it are
				// needed. The goal-directed search finds them in a fraction
				// of the pops, and leaves the heap Dijkstra's chain: as it
				// found it, or with its ties settled by tail labels or by a
				// prefix of the Dijkstra. When it cannot, the Dijkstra runs,
				// and stops as soon as dst settles. From the second phase on,
				// a destination's row of potentials is brought up to the
				// current lengths before its first step of the phase:
				// repaired by one raising pass, or rebuilt.
				var d float64
				how := refused
				if sw.goal {
					i := int(dstIndex[c.Dst] - 1)
					row := pot[i*nw.N:][:nw.N]
					if phases > 1 && rowPhase[i] != int32(phases) {
						if rebuild {
							sp.potentials(c.Dst, revLen, row)
						} else {
							nw.repair(c.Dst, length, row, order[i*nw.N:][:nw.N])
						}
						rowPhase[i] = int32(phases)
					}
					d, how = sp.astar(c.Src, c.Dst, length, row, rev)
				}
				switch how {
				case untied, byLabel:
					certified++
				case byPrefix:
					fellBack++
				default:
					d = sp.dijkstra(c.Src, length, nil, c.Dst)[c.Dst]
					fellBack++
				}
				iters++
				if math.IsInf(d, 1) {
					if opt.Observer != nil {
						opt.Observer.GKDone(phases, iters, 0, 0)
					}
					return GKResult{Throughput: 0, UpperBound: 0, Phases: phases, Fallbacks: fallbacks + fellBack}
				}
				// Bottleneck along the path.
				bottleneck := math.Inf(1)
				for v := c.Dst; v != c.Src; {
					ai := parent[v]
					if arcCap[ai] < bottleneck {
						bottleneck = arcCap[ai]
					}
					v = int(arcFrom[ai])
				}
				f := remaining
				if bottleneck < f {
					f = bottleneck
				}
				for v := c.Dst; v != c.Src; {
					ai := parent[v]
					flow[ai] += f
					old := length[ai]
					nl := old * (1 + eps*f/arcCap[ai])
					length[ai] = nl
					if sw.goal && rebuild {
						revLen[rev[ai]] = nl // rev is an involution
					}
					D += arcCap[ai] * (nl - old)
					v = int(arcFrom[ai])
				}
				routed[j] += f
				remaining -= f
			}
		}
		fallbacks += fellBack
		if canceled {
			break
		}
		// A tie-heavy solve (a fat-tree, whose equal-cost paths stay tied)
		// must not pay for two searches per step: the rest of it routes with
		// Dijkstra alone and sweeps forward, once a phase falls back on more
		// than three steps in four, or two phases in a row on more than half.
		// A cold start's first phase ties every equal-hop path on any
		// topology (up to two thirds of its steps fall back on Jellyfish and
		// Xpander), so one phase just over half is not enough to tell.
		if fellBack > 3*certified || (fellBack > certified && tiedPhase) {
			sw.goal = false
		}
		tiedPhase = fellBack > certified
	}

	thr := primalValue(nw, live, flow, routed)
	if thr > dualBound {
		thr = dualBound // numerical safety: primal cannot beat the dual bound
	}
	if opt.Observer != nil {
		opt.Observer.GKDone(phases, iters, thr, dualBound)
	}
	res := GKResult{Throughput: thr, UpperBound: dualBound, Phases: phases, Fallbacks: fallbacks}
	if opt.ExportDuals {
		res.Duals = append([]float64(nil), length...)
	}
	return res
}

// gkMaxPotentials caps a solve's potential table, nDst × N floats (32 MiB):
// a solve whose destinations would need more routes with Dijkstra alone.
const gkMaxPotentials = 1 << 22

// gkRepairMaxEps is the largest ε at which a cold solve repairs its rows of
// potentials by one raising pass rather than rebuilding them (DESIGN.md §7,
// "Rows repaired, not rebuilt"). The pass starts from the old row and its
// order, which are a good guess where lengths grow little per phase: at
// ε 0.08 it is faster than a rebuild on the cold shapes measured, at 0.25
// (lengths ≈ 11× a phase) flat to slower. The cut lies between those two,
// eval's rung defaults. Warm solves rebuild at any ε: a neighbour's duals
// leave raised rows far below rebuilt ones.
const gkRepairMaxEps = 0.125

// gkBuffers are the arrays of one solve, kept by a Workspace for the next
// or, for a solve without one, by gkPool.
type gkBuffers struct {
	live                                    []Commodity
	length, flow, routed, distTo            []float64
	index, srcStart, bySrc, dstStart, byDst []int32
	rowPhase                                []int32
	nodes                                   []int
	states                                  []*spState
	sweep                                   phaseSweep
	goal                                    *goalTables // the last solve's (see goalTables)
}

// phaseSweep is the work of a phase boundary, item by item (run), over one
// solve's arrays. It lives in gkBuffers, so that handing run to
// graph.ParallelFor costs one small allocation per solve.
type phaseSweep struct {
	states                           []*spState
	live                             []Commodity
	length, pot, revLen, distTo      []float64
	sources, dsts                    []int
	srcStart, bySrc, dstStart, byDst []int32
	order                            []uint16
	goal                             bool // routing goal-directed: point queries on rows of potentials
	rows                             bool // build the rows, and seed their orders if order is set, first (the first phase; later ones repair or rebuild them while routing)
}

// items is the number of items of the current phase's sweep.
func (p *phaseSweep) items() int {
	if p.goal {
		nDst := len(p.dsts)
		return nDst + int(p.dstStart[nDst+1]-p.dstStart[nDst])
	}
	return len(p.sources)
}

// run is one item of a phase's sweep, into worker w's own scratch. Routing
// goal-directed, items [0, nDst) are destinations: a point query for each
// source that sends to the destination alone, on its row of potentials
// (built, and its order seeded if the solve repairs rows, here first if
// p.rows); items from nDst on are the sources with several destinations.
// Routing with Dijkstra alone, item k is source k. A source's full Dijkstra
// hands each of its commodities its dist[dst].
//
// A row the previous phase's routing left came from lengths no longer than
// the current ones, so it is still a lower bound on every distance to its
// destination, and the point query's label is dijkstra's whatever row it
// runs on (astar).
func (p *phaseSweep) run(w, k int) {
	st := p.states[w]
	if p.goal {
		nDst := len(p.dsts)
		if k >= nDst {
			k = int(p.byDst[int(p.dstStart[nDst])+k-nDst])
		} else {
			n := len(st.dist)
			row := p.pot[k*n:][:n]
			if p.rows {
				st.potentials(p.dsts[k], p.revLen, row)
				if p.order != nil {
					seedOrder(row, p.order[k*n:][:n])
				}
			}
			for _, s := range p.byDst[p.dstStart[k]:p.dstStart[k+1]] {
				d, _ := st.astar(p.sources[s], p.dsts[k], p.length, row, nil)
				for _, j := range p.bySrc[p.srcStart[s]:p.srcStart[s+1]] {
					p.distTo[j] = d
				}
			}
			return
		}
	}
	d := st.dijkstra(p.sources[k], p.length, nil, -1)
	for _, j := range p.bySrc[p.srcStart[k]:p.srcStart[k+1]] {
		p.distTo[j] = d[p.live[j].Dst]
	}
}

// goalTables are the goal-directed search's arrays: the potential table,
// nDst × N floats, whose size grows with the square of the solve's, its
// rows' node orders, and the reversed starting lengths with the arc
// reversal they are gathered through. They are lent from goalPool — a
// process runs few solves at a time, however many Workspaces it keeps —
// and a gkBuffers remembers the ones its last solve had, to take them again
// while nobody else holds them: a Workspace reused solve after solve then
// gets its tables back whatever the pool does (a sync.Pool can miss across
// processors, and drops a quarter of what is put back under the race
// detector). inUse says a solve holds them, inPool that they were put back
// and not taken out since.
type goalTables struct {
	inUse, inPool atomic.Bool
	pot, revLen   []float64
	rev           []int32
	order         []uint16
}

var goalPool = sync.Pool{New: func() any { return new(goalTables) }}

// takeGoalTables returns the tables b's last solve had if they are free,
// else free ones from goalPool.
func (b *gkBuffers) takeGoalTables() *goalTables {
	if gt := b.goal; gt != nil && gt.inUse.CompareAndSwap(false, true) {
		return gt
	}
	for {
		gt := goalPool.Get().(*goalTables)
		gt.inPool.Store(false)
		// Tables the pool hands out can be held through another
		// gkBuffers' memory of them; that solve puts them back.
		if gt.inUse.CompareAndSwap(false, true) {
			b.goal = gt
			return gt
		}
	}
}

// release frees the tables and puts them back in goalPool, unless they are
// there already.
func (gt *goalTables) release() {
	gt.inUse.Store(false)
	if gt.inPool.CompareAndSwap(false, true) {
		goalPool.Put(gt)
	}
}

// gkPool lends solves that run without a Workspace (served queries, what-if
// scenarios) the arrays of an earlier one.
var gkPool = sync.Pool{New: func() any { return new(gkBuffers) }}

// release returns pooled buffers, without the network they last ran on.
func (b *gkBuffers) release() {
	for _, st := range b.states {
		if st != nil {
			st.nw = nil
		}
	}
	gkPool.Put(b)
}

// reverseArcs sets rev[k] to the index of arc k's reverse. Every arc of a
// network built off an undirected graph has one.
func reverseArcs(nw *Network, rev []int32) {
	for k, to := range nw.arcTo {
		rev[k] = int32(nw.ArcIndex(int(to), int(nw.arcFrom[k])))
	}
}

// zeroed returns *p resized to n zero values, reallocating only to grow.
func zeroed[T any](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, n)
		return *p
	}
	*p = (*p)[:n]
	clear(*p)
	return *p
}

// primalValue returns the certified feasible concurrent-flow fraction for
// the accumulated (possibly capacity-violating) flow: scale flows uniformly
// so the most-loaded arc is exactly at capacity, then take the minimum over
// commodities of scaled-routed/demand.
func primalValue(nw *Network, live []Commodity, flow, routed []float64) float64 {
	over := 0.0
	for i, a := range nw.Arcs {
		if u := flow[i] / a.Cap; u > over {
			over = u
		}
	}
	thr := math.Inf(1)
	for j, c := range live {
		frac := routed[j] / c.Demand
		if over > 0 {
			frac /= over
		}
		if frac < thr {
			thr = frac
		}
	}
	if math.IsInf(thr, 1) || math.IsNaN(thr) {
		return 0
	}
	return thr
}

// spState holds reusable Dijkstra buffers for arc-length shortest paths.
type spState struct {
	nw     *Network
	dist   []float64
	parent []int32
	heap   minheap.Heap
	suffix []int32 // resolve's chain arcs, target first; capacity N
}

func newSPState(nw *Network) *spState {
	chains := make([]int32, 2*nw.N) // parent, then suffix's backing array
	return &spState{
		nw:     nw,
		dist:   make([]float64, nw.N),
		parent: chains[:nw.N:nw.N],
		heap:   minheap.New(nw.N),
		suffix: chains[nw.N:nw.N],
	}
}

// dijkstra computes arc-length shortest paths from src. Distances are
// written into dist if non-nil, else into the shared s.dist buffer (valid
// until the next call; callers that cache must copy). s.parent[v] is set to
// the arc index entering v on a shortest path (−1 at src/unreachable; only
// settled nodes have final parents). If target >= 0 the search stops once
// target is settled — dist[target] and the parent chain from target back to
// src are final, other entries may be unsettled upper bounds.
//
// The sequence of heap pushes and pops is output-defining (DESIGN.md §7):
// GK lengths tie exactly, the heap's tie order picks the path, and the path
// picks every later length. Anything here may change except that sequence.
// Lengths must be non-negative; that is what lets the kernel run without a
// settled set. A node's heap entries carry strictly decreasing priorities,
// so exactly the first one popped equals dist[u] and every later one is
// stale; and a settled node is never relaxed again, because pops are
// non-decreasing and du+length >= du >= dist[to].
func (s *spState) dijkstra(src int, length []float64, dist []float64, target int) []float64 {
	nw := s.nw
	if dist == nil {
		dist = s.dist
	}
	// Equal lengths, stated once, let the compiler drop the per-arc bounds
	// checks on length and parent below.
	dist = dist[:nw.N]
	parent := s.parent[:len(dist)]
	arcStart := nw.arcStart[:len(dist)+1]
	arcTo := nw.arcTo
	length = length[:len(arcTo)]
	inf := math.Inf(1)
	for i := range dist {
		dist[i] = inf
	}
	for i := range parent {
		parent[i] = -1
	}
	dist[src] = 0
	h := &s.heap
	h.Reset()
	h.Push(minheap.Item{Node: int32(src), Pri: 0})
	for h.Len() > 0 {
		it := h.Pop()
		u := int(it.Node)
		du := it.Pri
		if du > dist[u] {
			continue
		}
		if u == target {
			break
		}
		lo := int(arcStart[u])
		row := arcTo[lo:arcStart[u+1]]
		rowLen := length[lo:][:len(row)]
		for k, to := range row {
			nd := du + rowLen[k]
			if nd < dist[to] {
				dist[to] = nd
				parent[to] = int32(lo + k)
				h.Push(minheap.Item{Node: to, Pri: nd})
			}
		}
	}
	return dist
}

// potDeflate and drainBand are the goal-directed search's two margins
// (DESIGN.md §7, "Certified goal-directed routing"). Potentials are scaled
// down by 2⁻³⁰, so the reverse sweep's rounding cannot make one exceed a true
// distance; and the search drains every entry within 2⁻³⁰ of the target's
// key, which covers the rounding of every fold sum along paths of fewer
// than 2²⁰ hops.
const (
	potDeflate = 1 - 0x1p-30
	drainBand  = 1 + 0x1p-30
)

// potentials fills row with every node's distance to dst under the lengths
// whose reverses revLen holds (revLen[k] is the length of arc k's reverse,
// so a Dijkstra from dst over revLen runs backwards over the lengths),
// deflated by potDeflate. Lengths only grow within a solve, so the row stays
// a lower bound on the distance to dst for the rest of it.
func (s *spState) potentials(dst int, revLen, row []float64) {
	s.dijkstra(dst, revLen, row, -1)
	for v, r := range row {
		row[v] = r * potDeflate
	}
}

// seedOrder sets order to row's nodes in ascending order of row, ties by
// node index.
func seedOrder(row []float64, order []uint16) {
	for v := range order {
		order[v] = uint16(v)
	}
	slices.SortFunc(order, func(a, b uint16) int {
		if c := cmp.Compare(row[a], row[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// repair raises dst's row of potentials, built or repaired under lengths no
// longer than length, towards the row potentials would build under length,
// in place and with no heap (DESIGN.md §7, "Rows repaired, not rebuilt").
// One pass takes the nodes in order (row's nodes in ascending order of the
// row), raises each entry to potDeflate times its node's via where that is
// larger, and sorts order again by insertion as it goes. Every entry stays
// at or below the one potentials would give, so the row stays admissible
// with the same rounding margin.
func (nw *Network) repair(dst int, length, row []float64, order []uint16) {
	for i, v := range order {
		row[v] = max(row[v], nw.via(int(v), dst, length, row)*potDeflate)
		reinsert(order, row, i)
	}
}

// via returns v's least length[v→u] + row[u], or 0 at dst. Non-negative
// floats order as their bit patterns do, so the minimum is taken over those:
// an integer compare and move per arc, where the float min's NaN handling
// chains five instructions.
func (nw *Network) via(v, dst int, length, row []float64) float64 {
	if v == dst {
		return 0
	}
	lo, hi := nw.arcStart[v], nw.arcStart[v+1]
	out, outLen := nw.arcTo[lo:hi], length[lo:hi]
	best := math.Float64bits(math.Inf(1))
	for k, u := range out {
		best = min(best, math.Float64bits(outLen[k]+row[u]))
	}
	return math.Float64frombits(best)
}

// reinsert moves order[i] left past the nodes before it with larger entries
// in row: with order[:i] sorted by row, order[:i+1] then is.
func reinsert(order []uint16, row []float64, i int) {
	v := order[i]
	r := row[v]
	for ; i > 0 && row[order[i-1]] > r; i-- {
		order[i] = order[i-1]
	}
	order[i] = v
}

// tied marks, in astar's parent array, a node that another arc reached at
// its label as well. Arc indices stay below it.
const tied = 1 << 30

// route is how astar left a routing step's parent chain.
type route uint8

const (
	refused  route = iota // not dijkstra's for certain: dijkstra must route the step
	untied                // no tie on the chain: dijkstra's as the search left it
	byLabel               // ties settled by their tails' labels alone
	byPrefix              // a tie between equal-label tails settled by a prefix of dijkstra
)

// astar is a goal-directed search from src to target under length, with
// pot (a row from potentials, for target, of this length function or an
// earlier one) as the A* potentials. It returns dist[target], which always
// equals what dijkstra computes for it, and how the parent chain it leaves
// in s.parent is dijkstra's: as searched, or with its ties resolved (rev,
// the arc reversal, is needed for that; with rev nil a tied chain is
// refused), or not for certain (refused).
//
// The search keeps no settled set: an entry is stale when its key is above
// the node's current one, and a node whose label drops is pushed again, so
// potentials that are not consistent in floats cost a re-expansion, never a
// wrong label. After the target's first expansion the heap is drained up to
// drainBand times the target's label; by then every node that could reach a
// label on the target's parent chain at the minimum has been expanded with
// its final label (DESIGN.md §7). A relaxation that equals a label from
// another arc marks the node tied, one that beats it clears the mark.
// Labels are the unique minimum fold sums, and the heap's tie order only
// picks among arcs that reach a label exactly; so a chain without a tied
// node, whose target label has not moved since its first expansion, is
// dijkstra's chain bit for bit.
func (s *spState) astar(src, target int, length, pot []float64, rev []int32) (float64, route) {
	nw := s.nw
	dist := s.dist[:nw.N]
	parent := s.parent[:len(dist)]
	pot = pot[:len(dist)]
	arcStart := nw.arcStart[:len(dist)+1]
	arcTo := nw.arcTo
	length = length[:len(arcTo)]
	inf := math.Inf(1)
	for i := range dist {
		dist[i] = inf
	}
	for i := range parent {
		parent[i] = -1
	}
	if math.IsInf(pot[src], 1) {
		return inf, refused
	}
	dist[src] = 0
	h := &s.heap
	h.Reset()
	h.Push(minheap.Item{Node: int32(src), Pri: pot[src]})
	// cut is drainBand times the target's label: the drain stops at the
	// first key above it, and an entry above it is never pushed, since the
	// drain would stop before popping it.
	cut, first := inf, -1.0 // first: the target's label at its first expansion
	for h.Len() > 0 {
		it := h.Pop()
		if it.Pri > cut {
			break
		}
		u := int(it.Node)
		du := dist[u]
		if it.Pri > du+pot[u] {
			continue
		}
		if u == target && first < 0 {
			first = du
		}
		lo := int(arcStart[u])
		row := arcTo[lo:arcStart[u+1]]
		rowLen := length[lo:][:len(row)]
		for k, to := range row {
			nd := du + rowLen[k]
			if d := dist[to]; nd < d {
				dist[to] = nd
				parent[to] = int32(lo + k)
				if int(to) == target {
					cut = nd * drainBand
				}
				if key := nd + pot[to]; key <= cut {
					h.Push(minheap.Item{Node: to, Pri: key})
				}
			} else if nd == d && parent[to]&^tied != int32(lo+k) {
				parent[to] |= tied
			}
		}
	}
	d := dist[target]
	if d != first {
		return d, refused
	}
	for v := target; v != src; v = int(nw.arcFrom[parent[v]]) {
		if parent[v]&tied != 0 {
			if rev == nil {
				return d, refused
			}
			return d, s.resolve(src, target, length, rev)
		}
	}
	return d, untied
}

// resolve turns the tied parent chain a drained astar left into dijkstra's
// (DESIGN.md §7). The drain has relaxed every in-arc that reaches a chain
// label from its tail's final label, so walking from the target, at a tied
// node v the arcs that reach dist[v] are known, and dijkstra's parent is the
// one from the tail it pops first: the tail with the least label. Only when
// two tails share that least label does the heap's tie order decide; there
// dijkstra itself, stopped at v (its target), runs an exact prefix of the
// full run's push/pop sequence and leaves v and every node before it on the
// chain the parent the full run gives them. The walked suffix is then
// written back over the prefix's parents.
func (s *spState) resolve(src, target int, length []float64, rev []int32) route {
	nw := s.nw
	dist, parent := s.dist, s.parent
	suffix := s.suffix[:0]
	how := byLabel
	for v := target; v != src; {
		a := parent[v]
		if a&tied != 0 {
			least, shared := math.Inf(1), false
			lo := nw.arcStart[v]
			for k, u := range nw.arcTo[lo:nw.arcStart[v+1]] {
				du, in := dist[u], rev[int(lo)+k]
				if du > least || du+length[in] != dist[v] {
					continue
				}
				shared = du == least
				a, least = in, du
			}
			if shared {
				s.dijkstra(src, length, nil, v)
				how = byPrefix
				break
			}
		}
		suffix = append(suffix, a)
		v = int(nw.arcFrom[a])
	}
	for _, a := range suffix {
		parent[nw.arcTo[a]] = a
	}
	return how
}
