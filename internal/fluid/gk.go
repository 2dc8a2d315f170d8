package fluid

import (
	"context"
	"math"
	"runtime"

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
	// Workers bounds the goroutines used for the per-phase dual-bound
	// distance computations (one Dijkstra per distinct commodity source,
	// read-only on the length function within the phase). 0 means
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
	var own gkBuffers
	buf := &own
	if opt.Workspace != nil {
		buf = &opt.Workspace.gk
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

	// Distinct commodity sources, in first-appearance order; the per-phase
	// dual bound needs one full Dijkstra per distinct source.
	srcIndex := zeroed(&buf.srcIndex, nw.N) // 1 + a node's index into sources; 0 = not a source yet
	nSrc := 0
	for _, c := range live {
		if srcIndex[c.Src] == 0 {
			nSrc++
			srcIndex[c.Src] = int32(nSrc)
		}
	}
	// The live commodities grouped by source, CSR style: source k's are
	// bySrc[srcStart[k]:srcStart[k+1]], as ascending indices into live. Counts
	// go in two slots up, so that after the prefix sum slot k+1 is group k's
	// fill cursor and, once the group is filled, its end.
	sources := zeroed(&buf.sources, nSrc)
	srcStart := zeroed(&buf.srcStart, nSrc+2)
	for _, c := range live {
		sources[srcIndex[c.Src]-1] = c.Src
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

	// sweep is one source's share of a phase's dual bound: a full Dijkstra
	// into its worker's own scratch, from which the source's commodities take
	// their distances. (One closure per solve, not per phase.)
	sweep := func(w, k int) {
		d := states[w].dijkstra(sources[k], length, nil, -1)
		for _, j := range bySrc[srcStart[k]:srcStart[k+1]] {
			distTo[j] = d[live[j].Dst]
		}
	}

	dualBound := math.Inf(1)
	sp := states[0] // routing reuses worker 0's scratch between phases
	parent, arcFrom, arcCap := sp.parent, nw.arcFrom, nw.arcCap
	phases := 0
	iters := 0 // routing Dijkstras, reported through the observer
	canceled := false
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
		// read-only within this step, so the per-source Dijkstras fan out
		// across the workers, and the reduction below runs in fixed
		// commodity order, so the result is identical at any worker count.
		graph.ParallelFor(workers, nSrc, sweep)
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
				// needed, so the Dijkstra stops as soon as dst settles.
				d := sp.dijkstra(c.Src, length, nil, c.Dst)
				iters++
				if math.IsInf(d[c.Dst], 1) {
					if opt.Observer != nil {
						opt.Observer.GKDone(phases, iters, 0, 0)
					}
					return GKResult{Throughput: 0, UpperBound: 0, Phases: phases}
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
					D += arcCap[ai] * (nl - old)
					v = int(arcFrom[ai])
				}
				routed[j] += f
				remaining -= f
			}
		}
		if canceled {
			break
		}
	}

	thr := primalValue(nw, live, flow, routed)
	if thr > dualBound {
		thr = dualBound // numerical safety: primal cannot beat the dual bound
	}
	if opt.Observer != nil {
		opt.Observer.GKDone(phases, iters, thr, dualBound)
	}
	res := GKResult{Throughput: thr, UpperBound: dualBound, Phases: phases}
	if opt.ExportDuals {
		res.Duals = append([]float64(nil), length...)
	}
	return res
}

// gkBuffers are the arrays of one solve, kept by a Workspace for the next.
type gkBuffers struct {
	live                         []Commodity
	length, flow, routed, distTo []float64
	srcIndex, srcStart, bySrc    []int32
	sources                      []int
	states                       []*spState
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
}

func newSPState(nw *Network) *spState {
	return &spState{
		nw:     nw,
		dist:   make([]float64, nw.N),
		parent: make([]int32, nw.N),
		heap:   minheap.New(nw.N),
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
