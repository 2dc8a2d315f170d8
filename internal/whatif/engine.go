package whatif

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"beyondft/internal/eval"
	"beyondft/internal/fluid"
	"beyondft/internal/graph"
	"beyondft/internal/obs"
	"beyondft/internal/stats"
)

// histBins is the fixed bin count of the report histogram over [0,1].
const histBins = 20

// linkCap is the capacity of one unit of link multiplicity: server line
// rate, the unit of every throughput in the repo.
const linkCap = 1.0

// Options tunes an Evaluate sweep.
type Options struct {
	// Ladder is the ε-ladder policy; zero values take the defaults (the
	// evaluation core's rungs, top-k 8).
	Ladder Ladder
	// Workers is the scenario-level parallelism (scenarios are solved
	// concurrently, each solve single-threaded — at family scale that
	// beats intra-solve parallelism). 0 means graph.Parallelism(). The
	// report is identical at any worker count.
	Workers int
	// Ctx, if non-nil, cancels the sweep: Evaluate returns ctx.Err() and
	// no report. Propagated into every GK solve at iteration granularity;
	// a solve it cuts short is neither reported nor cached.
	Ctx context.Context
	// Cache, if non-nil, serves and stores per-scenario results by
	// content address, making sweeps resumable.
	Cache *ScenarioCache
	// Metrics, if non-nil, receives engine counters and rung latencies.
	Metrics *Metrics
	// Span, if non-nil, gets per-rung children with scenario counts and
	// warm/cache hit attributes.
	Span *obs.Span
	// OnResult, if non-nil, streams results as scenarios finish — in
	// completion order, possibly concurrently with other solves (calls
	// are serialized). Promoted scenarios are streamed twice: once with
	// the coarse result, once with Promoted set.
	OnResult func(Result)
}

// debugCoarseSwept, when non-nil (set only by tests), sees every scenario's
// coarse rung when the coarse sweep ends, before anything is promoted.
var debugCoarseSwept func(coarse []eval.Rung)

// Evaluate runs the scenario family against the base graph and commodity
// set. The report's Results are index-aligned with scenarios, and the
// whole report is deterministic: same inputs give bit-identical results at
// any worker count and over any cache, however it was populated.
func Evaluate(g *graph.Graph, comms []fluid.Commodity, scenarios []Scenario, opt Options) (*Report, error) {
	if err := opt.Ladder.Normalize(); err != nil {
		return nil, err
	}
	if opt.Metrics == nil {
		opt.Metrics = &Metrics{} // all-nil instruments: obs types no-op on nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = graph.Parallelism()
	}
	ladder := eval.Ladder{CoarseEps: opt.Ladder.CoarseEps, FineEps: opt.Ladder.FineEps, Ctx: opt.Ctx}
	coarseKey, fineKey := ladder.CoarseKey(), ladder.FineKey()

	base := g.Frozen()
	baseNW := fluid.NewNetworkFromView(base, linkCap)
	rep := &Report{Results: make([]Result, len(scenarios))}
	var iterations atomic.Int64

	// Base rung: one cold coarse solve exports the duals every scenario
	// warm-starts from; the reported base result is the ladder's fine solve
	// of the same network.
	baseSp := opt.Span.Child("base-solve")
	baseP := eval.Problem{NW: baseNW, Comms: comms}
	baseCoarse, err := ladder.Coarse(baseP)
	baseFine := baseCoarse
	if err == nil && ladder.TwoRungs() {
		baseFine, err = ladder.Fine(baseP, baseCoarse)
		iterations.Add(int64(baseFine.Iterations))
	}
	iterations.Add(int64(baseCoarse.Iterations))
	baseSp.SetAttr("phases", float64(baseCoarse.Phases+baseFine.Phases))
	baseSp.End()
	if err != nil {
		return nil, err
	}
	rep.Base = Result{
		ID:         "base",
		Throughput: baseFine.Throughput,
		UpperBound: baseFine.UpperBound,
		Epsilon:    ladder.FineEps,
		Phases:     baseFine.Phases,
	}

	var mu sync.Mutex // guards rep counters and OnResult
	finish := func(i int, r Result) {
		rep.Results[i] = r
		if opt.OnResult != nil {
			mu.Lock()
			opt.OnResult(r)
			mu.Unlock()
		}
	}

	// before is the frontier order, worst first: (coarse throughput, ID), so
	// the frontier — like everything else — is independent of completion
	// order.
	before := func(a, b int) bool {
		ra, rb := rep.Results[a], rep.Results[b]
		if ra.Throughput != rb.Throughput {
			return ra.Throughput < rb.Throughput
		}
		return ra.ID < rb.ID
	}
	// keep is how many scenarios the fine rung will promote. Only they need
	// their coarse duals, and duals are one float per arc per scenario, so the
	// coarse sweep holds them for its running worst-keep only (kept, under
	// mu). The final frontier is the worst-keep of everything and hence of
	// every subset it was ranked in along the way: it never loses its duals.
	keep := opt.Ladder.TopK
	if !ladder.TwoRungs() {
		keep = 0
	}
	var kept []int

	// rung evaluates scenario i at one rung of the ladder: cache probe,
	// overlay patch, solve, cache store. The coarse rung warm-starts from
	// the mapped base duals and leaves its result in coarse[i]; the fine rung
	// hands that to the ladder's refine rule, which re-runs the coarse solve
	// if its duals are gone (it came from the cache).
	coarse := make([]eval.Rung, len(scenarios))
	errs := make([]error, len(scenarios))
	rung := func(i int, fine bool) {
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return
		}
		s := scenarios[i]
		key, lat := coarseKey, opt.Metrics.RungCoarse
		if fine {
			key, lat = fineKey, opt.Metrics.RungFine
		}
		var slot eval.Slot // the scenario's address within the base: its delta
		if opt.Cache != nil && opt.Cache.Cache != nil {
			delta, err := json.Marshal(s.Delta)
			if err != nil {
				panic(fmt.Sprintf("whatif: encode delta: %v", err)) // plain slices of ints
			}
			slot = opt.Cache.Slot("whatif-scenario", key, "delta="+string(delta))
		}
		var r Result
		if slot.Get(&r) && r.ID == s.ID { // ID mismatch: aliased entry, recompute
			mu.Lock()
			rep.CacheHits++
			mu.Unlock()
			opt.Metrics.CacheHits.Inc()
			r.Promoted = fine
			finish(i, r)
			return
		}
		ov, err := graph.NewOverlay(base, s.Delta)
		if err != nil {
			errs[i] = fmt.Errorf("scenario %s: %w", s.ID, err)
			return
		}
		r = Result{ID: s.ID}
		if !fine && !reachable(ov, comms) {
			r.Epsilon, r.Disconnected = ladder.CoarseEps, true
			opt.Metrics.Disconnected.Inc()
		} else {
			nw := fluid.NewNetworkFromView(ov, linkCap)
			p := eval.Problem{NW: nw, Comms: comms, Warm: mapDuals(baseNW, baseCoarse.Duals, nw)}
			warm := fine || p.Warm != nil // the fine rung always starts from coarse duals
			if warm {
				opt.Metrics.WarmHits.Inc()
			} else {
				opt.Metrics.WarmMisses.Inc()
			}
			t0 := time.Now()
			var res eval.Rung
			if fine {
				res, err = ladder.Fine(p, coarse[i])
			} else {
				res, err = ladder.Coarse(p)
				coarse[i] = res
			}
			if err != nil {
				errs[i] = err
				return
			}
			lat.Observe(time.Since(t0))
			iterations.Add(int64(res.Iterations))
			r.Throughput, r.UpperBound, r.Epsilon, r.Phases = res.Throughput, res.UpperBound, res.Epsilon, res.Phases
			mu.Lock()
			rep.Evaluated++
			if warm {
				rep.WarmHits++
			}
			if fine {
				rep.Promoted++
			}
			mu.Unlock()
		}
		if fine {
			opt.Metrics.Promotions.Inc()
		} else {
			opt.Metrics.Scenarios.Inc()
		}
		slot.Put(&r)
		r.Promoted = fine
		finish(i, r)
		if !fine && coarse[i].Duals != nil {
			mu.Lock()
			kept = append(kept, i)
			if len(kept) > keep {
				last := 0
				for k := range kept {
					if before(kept[last], kept[k]) {
						last = k
					}
				}
				coarse[kept[last]].Duals = nil
				kept[last] = kept[len(kept)-1]
				kept = kept[:len(kept)-1]
			}
			mu.Unlock()
		}
	}
	// sweep runs one rung over a set of scenario indices and surfaces
	// cancellation and the first scenario error.
	sweep := func(idx []int, fine bool) error {
		graph.ParallelFor(workers, len(idx), func(_, k int) { rung(idx[k], fine) })
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return opt.Ctx.Err()
		}
		return errors.Join(errs...)
	}

	// Coarse rung: every scenario.
	coarseSp := opt.Span.Child("rung-coarse")
	all := make([]int, len(scenarios))
	for i := range all {
		all[i] = i
	}
	err = sweep(all, false)
	coarseSp.SetAttr("scenarios", float64(len(scenarios)))
	coarseSp.End()
	if err != nil {
		return nil, err
	}
	if debugCoarseSwept != nil {
		debugCoarseSwept(coarse)
	}

	// Fine rung: promote the worst-keep connected scenarios.
	if keep > 0 {
		fineSp := opt.Span.Child("rung-fine")
		frontier := make([]int, 0, len(scenarios))
		for i, r := range rep.Results {
			if !r.Disconnected {
				frontier = append(frontier, i)
			}
		}
		sort.Slice(frontier, func(a, b int) bool { return before(frontier[a], frontier[b]) })
		if len(frontier) > keep {
			frontier = frontier[:keep]
		}
		err := sweep(frontier, true)
		fineSp.SetAttr("promoted", float64(len(frontier)))
		fineSp.End()
		if err != nil {
			return nil, err
		}
		for _, i := range frontier {
			rep.WorstIDs = append(rep.WorstIDs, rep.Results[i].ID)
		}
	}

	vals := make([]float64, len(rep.Results))
	for i, r := range rep.Results {
		v := r.Throughput
		if v > 1 {
			v = 1
		}
		vals[i] = v
	}
	rep.Hist = stats.FixedHist(vals, 0, 1, histBins)
	rep.Iterations = iterations.Load()
	return rep, nil
}

// reachable reports whether every commodity's endpoints can still reach
// each other on the perturbed view — BFS per distinct source, the cheap
// precheck that turns "switch hosting a demand failed" into an explicit
// Disconnected result instead of a futile solve.
func reachable(v graph.View, comms []fluid.Commodity) bool {
	byStr := map[int][]int{}
	for _, c := range comms {
		if c.Demand > 0 && c.Src != c.Dst {
			byStr[c.Src] = append(byStr[c.Src], c.Dst)
		}
	}
	for src, dsts := range byStr {
		dist := graph.ViewBFS(v, src)
		for _, d := range dsts {
			if dist[d] < 0 {
				return false
			}
		}
	}
	return true
}

// mapDuals carries the base solve's per-arc duals onto a scenario network
// by (From,To) arc identity: arcs the scenario shares with the base take
// the base dual, scenario-only arcs (additions) are left 0, which the
// solver replaces with its cold per-arc value. Returns nil (cold start)
// when duals is nil.
func mapDuals(base *fluid.Network, duals []float64, scen *fluid.Network) []float64 {
	if duals == nil {
		return nil
	}
	out := make([]float64, len(scen.Arcs))
	for i, a := range scen.Arcs {
		if j := base.ArcIndex(a.From, a.To); j >= 0 {
			out[i] = duals[j]
		}
	}
	return out
}
