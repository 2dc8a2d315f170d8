package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"beyondft/internal/fluid"
	"beyondft/internal/graph"
	"beyondft/internal/obs"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
	"beyondft/internal/whatif"
)

// sweepBase is one seeded Jellyfish with its longest-matching commodities
// and single-link scenario family.
type sweepBase struct {
	t     *topology.Topology
	comms []fluid.Commodity
	scens []whatif.Scenario
}

// baseSize shrinks the 54-switch base for runs at well under full work
// (smoke tests); at half work and above the size is the catalogue's.
func baseSize(work float64) (n, degree int) {
	if work >= 0.5 {
		return 54, 9
	}
	return 12 + 2*int(20*work), 5
}

func jellyfishBase(n, degree int, seed int64) (*topology.Topology, []fluid.Commodity) {
	t := topology.NewJellyfish(n, degree, 6, rand.New(rand.NewSource(seed)))
	serversOf := func(rack int) int { return t.Servers[rack] }
	return t, fluid.Commodities(tm.LongestMatching(t.G, t.ToRs(), serversOf))
}

// setupSweep builds the pinned bases (see inputRNG). The single-link
// family is enumerated, not sampled, and the longest-matching TM is a
// function of the graph, so this workload's inputs are the same for every
// seed.
func setupSweep(env *runEnv, work float64) ([]sweepBase, error) {
	rng := pinnedRNG("whatif_sweep")
	n, degree := baseSize(work)
	bases := make([]sweepBase, count(2, work, 1))
	for i := range bases {
		t, comms := jellyfishBase(n, degree, freshSeed(rng))
		scens, err := whatif.Scenarios(t.G, whatif.FamilySpec{Kind: "single-link"})
		if err != nil {
			return nil, err
		}
		bases[i] = sweepBase{t: t, comms: comms, scens: scens}
	}
	// A throwaway sweep of a 16-switch base, so the measured sweeps start
	// with the solver's and the worker pool's first-use costs paid.
	t, comms := jellyfishBase(16, 5, freshSeed(rng))
	scens, err := whatif.Scenarios(t.G, whatif.FamilySpec{Kind: "single-link"})
	if err == nil {
		_, err = driveSweep(env, []sweepBase{{t: t, comms: comms, scens: scens}}, nil)
	}
	return bases, err
}

// sweepPass is one run over all bases.
type sweepPass struct {
	reports []*whatif.Report
	callMs  []float64
	spans   []*obs.Record
	reg     *obs.Registry
}

func driveSweep(env *runEnv, bases []sweepBase, tr *tracer) (sweepPass, error) {
	var p sweepPass
	var metrics *whatif.Metrics
	if tr != nil {
		p.reg = obs.NewRegistry()
		metrics = whatif.NewMetrics(p.reg)
	}
	for _, b := range bases {
		sp := tr.root("whatif.evaluate")
		t0 := time.Now()
		rep, err := whatif.Evaluate(b.t.G, b.comms, b.scens, whatif.Options{Workers: env.NProc, Span: sp, Metrics: metrics})
		if err != nil {
			return p, err
		}
		p.callMs = append(p.callMs, float64(time.Since(t0))/1e6)
		sp.End()
		p.reports = append(p.reports, rep)
		p.spans = append(p.spans, sp.Record())
	}
	return p, nil
}

func runWhatifSweep(env *runEnv) *result {
	r := newResult("whatif_sweep")
	work := env.work()
	bases, err := timedSetup(r, func() ([]sweepBase, error) { return setupSweep(env, work) }, func([]sweepBase) {})
	if err != nil {
		r.failf("set-up: %v", err)
		return r
	}
	var pass sweepPass
	r.Sec = measure(env.NProc, func() { pass, err = driveSweep(env, bases, nil) })
	if err != nil {
		r.failf("evaluate: %v", err)
		return r
	}
	checkSweep(r, bases, pass)
	if env.Trace {
		traceSweep(env, r, bases, pass)
	}
	return r
}

func checkSweep(r *result, bases []sweepBase, pass sweepPass) {
	var baseTput []float64
	var hist []int64
	for bi, rep := range pass.reports {
		r.Attempted += len(rep.Results)
		checkCertificate(r, fmt.Sprintf("base %d", bi), rep.Base.Throughput, rep.Base.UpperBound, rep.Base.Epsilon)
		for _, res := range rep.Results {
			before := len(r.Failures)
			switch {
			case res.Disconnected:
				if res.Throughput != 0 {
					r.failf("base %d %s: disconnected with throughput %g", bi, res.ID, res.Throughput)
				}
			default:
				checkCertificate(r, fmt.Sprintf("base %d %s", bi, res.ID), res.Throughput, res.UpperBound, res.Epsilon)
				// Failing one cable of a trunk cannot raise the optimum, so a
				// scenario may beat the base only by the two solves' slack.
				if lim := rep.Base.UpperBound * (1 + 1e-9); res.Throughput > lim {
					r.failf("base %d %s: throughput %g above the unperturbed dual bound %g", bi, res.ID, res.Throughput, lim)
				}
			}
			if len(r.Failures) > before {
				r.Failed++
			}
		}
		if len(rep.Results) != len(bases[bi].scens) {
			r.failf("base %d: %d results for %d scenarios", bi, len(rep.Results), len(bases[bi].scens))
		}
		baseTput = append(baseTput, rep.Base.Throughput)
		hist = append(hist, rep.Hist.Counts...)
	}
	r.Ops = r.Attempted - r.Failed
	r.LatMs = sortedCopy(pass.callMs)
	r.Digest["base_throughput"], r.SeedInvariant = baseTput, true
	r.Digest["hist"] = hist
}

// traceSweep runs the sweeps again with Options.Span and Options.Metrics
// on a private registry, then replays what Evaluate does per scenario —
// overlay, arc network — and the cold base solve from outside.
func traceSweep(env *runEnv, r *result, bases []sweepBase, untraced sweepPass) {
	tr := &tracer{}
	var pass sweepPass
	var err error
	traced := measure(env.NProc, func() { pass, err = driveSweep(env, bases, tr) })
	if err != nil {
		r.failf("traced evaluate: %v", err)
		return
	}
	layer := map[string]float64{}
	r.Layer = layer
	var iters int64
	var scenarios, promoted, warm int
	baseMs := 0.0
	for bi, rep := range pass.reports {
		if rep.Iterations != untraced.reports[bi].Iterations || rep.Base.Throughput != untraced.reports[bi].Base.Throughput {
			r.failf("base %d: traced sweep differs from untraced (iterations %d vs %d)", bi, rep.Iterations, untraced.reports[bi].Iterations)
		}
		iters += rep.Iterations
		scenarios += len(rep.Results)
		promoted += rep.Promoted
		warm += rep.WarmHits
		for _, c := range pass.spans[bi].Children {
			if c.Name == "base-solve" {
				baseMs += c.DurMs
			}
		}
	}
	layer["whatif.scenarios"] = float64(scenarios)
	layer["whatif.promoted"] = float64(promoted)
	layer["whatif.warm_hits"] = float64(warm)
	layer["whatif.base_solve_ms"] = baseMs
	coarseSum := sumSeries(pass.reg, `beyondftd_whatif_rung_ms_sum{rung="coarse"}`)
	fineSum := sumSeries(pass.reg, `beyondftd_whatif_rung_ms_sum{rung="fine"}`)
	if n := sumSeries(pass.reg, `beyondftd_whatif_rung_ms_count{rung="coarse"}`); n > 0 {
		layer["whatif.coarse_ms_mean"] = coarseSum / n
	}
	if n := sumSeries(pass.reg, `beyondftd_whatif_rung_ms_count{rung="fine"}`); n > 0 {
		layer["whatif.fine_ms_mean"] = fineSum / n
	}

	// Replay: the per-scenario overlay and arc-network construction, and
	// one cold coarse solve per base — the unit the "share of N cold
	// solves" ratio is taken against.
	rt := &tracer{}
	root := rt.root("loadgen.replay")
	var coldIters, coldSolves int
	maxGap := 0.0
	for _, b := range bases {
		var base *graph.CSR
		call(root, "graph.freeze", func() { base = b.t.G.Frozen() })
		call(root, "graph.overlay", func() {
			for _, s := range b.scens {
				if ov, err := graph.NewOverlay(base, s.Delta); err == nil {
					fluid.NewNetworkFromView(ov, 1.0)
				}
			}
		})
		var tel fluid.GKTelemetry
		call(root, "fluid.gk_solve", func() {
			fluid.MaxConcurrentFlow(fluid.NewNetworkFromView(base, 1.0), b.comms,
				fluid.GKOptions{Epsilon: 0.25, Workers: 1, Observer: &tel})
		})
		coldIters += tel.Iterations
		coldSolves++
		maxGap = math.Max(maxGap, (tel.Dual-tel.Primal)/tel.Dual)
	}
	lt := rt.fold()
	overlayMs := lt.SelfMs["graph"]
	layer["graph.freeze_ms"] = 0 // already frozen by the sweep: the replay's call is a cache hit
	layer["graph.overlay_ms"] = overlayMs
	solveMs := baseMs + coarseSum + fineSum
	layer["fluid.gk_solve_ms"] = solveMs
	layer["fluid.gk_solves"] = float64(2*len(bases) + scenarios + promoted)
	layer["fluid.gk_iterations"] = float64(iters)
	if iters > 0 {
		layer["fluid.gk_us_per_iteration"] = solveMs * 1e3 / float64(iters)
	}
	layer["fluid.gk_max_gap"] = maxGap
	if coldIters > 0 {
		// Sweep iterations over what the same scenarios would cost as
		// cold solves of their base.
		perBase := float64(coldIters) / float64(coldSolves)
		layer["fluid.gk_warm_iteration_ratio"] = float64(iters) / (float64(scenarios) * perBase)
	}
	// Scenario solves run on Workers goroutines: their summed busy time
	// covers the wall time Workers times over.
	busy := baseMs + (coarseSum+fineSum+overlayMs)/float64(env.NProc)
	traceCommon(r, traced, busy)
}
