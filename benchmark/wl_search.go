package main

import (
	"fmt"
	"math/rand"
	"time"

	"beyondft/internal/fluid"
	"beyondft/internal/harness"
	"beyondft/internal/search"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
)

// searchStart is one annealing start: a design, its generator coordinates
// and the search seed.
type searchStart struct {
	base   *topology.Topology
	params search.Params
	seed   int64
}

// searchState is both starts plus the cold candidate cache they share.
type searchState struct {
	starts []searchStart
	budget int
	cache  *harness.Cache
}

// setupSearch builds the pinned starting designs (see inputRNG); the seed
// drives the two searches' own randomness.
func setupSearch(env *runEnv, work float64) (*searchState, error) {
	rng, pinned := inputRNG(env.Seed, "search_batch"), pinnedRNG("search_batch")
	n, degree := baseSize(work)
	lift := (n + degree) / (degree + 1) // 54 switches at degree 9 → the catalogue's Xpander(9,6)
	jf := topology.NewJellyfish(n, degree, 6, rand.New(rand.NewSource(freshSeed(pinned))))
	xp := &topology.NewXpander(degree, lift, 6, rand.New(rand.NewSource(freshSeed(pinned)))).Topology
	st := &searchState{
		budget: count(48, work, 6),
		starts: []searchStart{
			{base: jf, params: search.Params{Kind: "jellyfish", N: n, Degree: degree, Servers: 6}, seed: freshSeed(rng)},
			{base: xp, params: search.Params{Kind: "xpander", N: xp.NumSwitches(), Degree: degree, Lift: lift, Servers: 6}, seed: freshSeed(rng)},
		},
	}
	var err error
	if st.cache, err = harness.OpenCache(env.tmp("search")); err != nil {
		return nil, err
	}
	// A throwaway search from a 16-switch start on its own cache, so the
	// measured searches start with first-use costs paid and a cold cache.
	warmCache, err := harness.OpenCache(env.tmp("search-warmup"))
	if err != nil {
		return nil, err
	}
	warm := &searchState{budget: 12, cache: warmCache, starts: []searchStart{{
		base:   topology.NewJellyfish(16, 5, 6, rand.New(rand.NewSource(freshSeed(pinned)))),
		params: search.Params{Kind: "jellyfish", N: 16, Degree: 5, Servers: 6}, seed: freshSeed(pinned),
	}}}
	_, err = driveSearch(env, warm, nil)
	return st, err
}

// searchPass is one run over both starts.
type searchPass struct {
	results []*search.Result
	callMs  []float64
}

func driveSearch(env *runEnv, st *searchState, tr *tracer) (searchPass, error) {
	var p searchPass
	for _, s := range st.starts {
		opt := search.Options{
			Seed: s.seed, Budget: st.budget, Workers: env.NProc,
			Cache: &search.CandidateCache{Cache: st.cache},
		}
		sp := tr.root("search.run")
		t0 := time.Now()
		res, err := search.Run(s.base, s.params, opt)
		sp.End()
		if err != nil {
			return p, err
		}
		p.callMs = append(p.callMs, float64(time.Since(t0))/1e6)
		p.results = append(p.results, res)
	}
	return p, nil
}

func runSearchBatch(env *runEnv) *result {
	r := newResult("search_batch")
	work := env.work()
	st, err := timedSetup(r, func() (*searchState, error) { return setupSearch(env, work) }, func(*searchState) {})
	if err != nil {
		r.failf("set-up: %v", err)
		return r
	}
	var pass searchPass
	r.Sec = measure(env.NProc, func() { pass, err = driveSearch(env, st, nil) })
	if err != nil {
		r.failf("search: %v", err)
		return r
	}
	checkSearch(r, st, pass)
	if env.Trace {
		traceSearch(env, r, work, pass)
	}
	return r
}

func checkSearch(r *result, st *searchState, pass searchPass) {
	var best, baseline []float64
	var spent []int
	for i, res := range pass.results {
		evals := res.Spent + res.FineSolves
		r.Attempted += evals
		before := len(r.Failures)
		what := fmt.Sprintf("search %d (%s)", i, res.BaselineName)
		if res.Spent > st.budget {
			r.failf("%s: spent %d of a budget of %d", what, res.Spent, st.budget)
		}
		if res.BestVal < res.Baseline || res.Baseline <= 0 {
			r.failf("%s: best %g below baseline %g", what, res.BestVal, res.Baseline)
		}
		prev := res.Baseline
		for _, s := range res.Steps {
			if s.Best < prev {
				r.failf("%s: step %d best-so-far fell from %g to %g", what, s.Step, prev, s.Best)
			}
			prev = s.Best
		}
		if t, err := res.Best.Build(); err != nil {
			r.failf("%s: best design does not build: %v", what, err)
		} else if !res.Envelope.Admits(t) {
			r.failf("%s: best design leaves the equal-cost envelope", what)
		}
		if len(r.Failures) > before {
			r.Failed += evals
		}
		best = append(best, res.BestVal)
		baseline = append(baseline, res.Baseline)
		spent = append(spent, res.Spent, res.FineSolves, len(res.Steps))
	}
	r.Ops = r.Attempted - r.Failed
	r.LatMs = sortedCopy(pass.callMs)
	r.Digest["baseline"] = baseline
	r.Digest["best"] = best
	r.Digest["spent_fine_steps"] = spent
}

// traceSearch repeats the searches on a fresh cold cache, then times the pieces a step is made of from outside: the
// structural proxy, one rewiring move, and the coarse→fine evaluation of
// the starting design.
func traceSearch(env *runEnv, r *result, work float64, untraced searchPass) {
	st, err := setupSearch(env, work)
	if err != nil {
		r.failf("traced set-up: %v", err)
		return
	}
	tr := &tracer{}
	var pass searchPass
	traced := measure(env.NProc, func() { pass, err = driveSearch(env, st, tr) })
	if err != nil {
		r.failf("traced search: %v", err)
		return
	}
	layer := map[string]float64{}
	r.Layer = layer
	var coarse, fine, steps, hits int
	for i, res := range pass.results {
		if res.Trace() != untraced.results[i].Trace() {
			r.failf("search %d: traced run's trace differs from the untraced run's", i)
		}
		coarse += res.Spent
		fine += res.FineSolves
		steps += len(res.Steps)
		hits += res.CacheHits
	}
	layer["search.coarse_evals"] = float64(coarse)
	layer["search.fine_solves"] = float64(fine)
	layer["search.steps"] = float64(steps)
	layer["search.cache_hits"] = float64(hits)
	if entries, bytes, err := st.cache.Stats(); err == nil {
		layer["harness.l2_entries"] = float64(entries)
		layer["harness.l2_bytes"] = float64(bytes)
	}

	rt := &tracer{}
	root := rt.root("loadgen.replay")
	var coarseMs, fineMs float64
	rng := rand.New(rand.NewSource(env.Seed))
	for _, s := range st.starts {
		t := s.base
		call(root, "search.proxy", func() { search.Proxy(t) })
		var comms []fluid.Commodity
		call(root, "tm.build", func() {
			comms = fluid.Commodities(tm.LongestMatching(t.G, t.ToRs(), func(rack int) int { return t.Servers[rack] }))
		})
		nw := fluid.NewNetwork(t.G, 1.0)
		var res fluid.GKResult
		t0 := time.Now()
		call(root, "fluid.gk_solve", func() {
			res = fluid.MaxConcurrentFlow(nw, comms, fluid.GKOptions{Epsilon: 0.25, Workers: 1, ExportDuals: true})
		})
		coarseMs += float64(time.Since(t0)) / 1e6
		t0 = time.Now()
		call(root, "fluid.gk_solve", func() {
			fluid.MaxConcurrentFlow(nw, comms, fluid.GKOptions{Epsilon: 0.08, Workers: 1, WarmStart: res.Duals})
		})
		fineMs += float64(time.Since(t0)) / 1e6
	}
	lt := rt.fold()
	nStarts := float64(len(st.starts))
	layer["search.proxy_ms"] = lt.SelfMs["search"] / nStarts
	layer["tm.build_ms"] = lt.SelfMs["tm"]
	layer["fluid.gk_solves"] = float64(coarse + fine)
	// The candidates' own solve times are not visible from outside; the
	// starting designs' coarse and fine rungs stand in for them.
	layer["fluid.gk_solve_ms"] = float64(coarse)*coarseMs/nStarts + float64(fine)*fineMs/nStarts
	moveStart := time.Now()
	moves := 0
	for _, s := range st.starts {
		for i := 0; i < 1000; i++ {
			if m, ok := search.ProposeSwap(s.base, rng); ok && search.ApplyChecked(s.base, m) == nil {
				_ = search.Undo(s.base, m) // undoing a move just applied cannot fail
				moves++
			}
		}
	}
	if moves > 0 {
		layer["search.move_us"] = float64(time.Since(moveStart)) / 1e3 / float64(moves)
	}
	// From outside, all of a search is search.Run's own time.
	traceCommon(r, traced, tr.fold().SelfMs["search"])
}
