// Package search inverts the repo's evaluation pipeline: instead of
// measuring hand-picked datacenter topologies, it searches for good ones.
// A seeded, deterministic optimizer (hill-climb or simulated annealing)
// walks a design space under an equal-cost envelope (internal/cost port
// accounting) using two move families:
//
//   - generator-parameter moves — step a Jellyfish/Xpander's switch count,
//     degree, lift or servers-per-switch and rebuild a fresh instance;
//   - random-graph rewiring moves — double-edge swaps that preserve the
//     degree sequence (and simplicity), plus port-rebalance moves for
//     non-regular graphs.
//
// Candidates climb an evaluation ladder: a cheap structural proxy
// (spectral gap + mean shortest path) filters each proposal batch, the
// survivors get a coarse-ε Garg–Könemann solve of the near-worst-case
// (longest-matching) traffic matrix, and only the batch winner is re-solved
// at fine ε — warm-started from its own coarse duals, the shared ε-ladder of
// internal/eval applied to design search. Candidate evaluations run in
// parallel and are content-addressed in the harness cache by design hash, so
// a killed search resumes where it left off: the trace and the best-found
// design are byte-identical at any worker count and any cache state.
// DESIGN.md §15 documents the architecture.
package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"beyondft/internal/cost"
	"beyondft/internal/eval"
	"beyondft/internal/graph"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
)

// DefaultBaseSpec pins the fixed demand model of candidate evaluations:
// the longest-matching TM over all racks at unit link capacity. Candidate
// cache entries are pure functions of (BaseSpec, design hash, rung), so
// searches with the same base spec share entries — even across different
// starting points.
const DefaultBaseSpec = "tm=longest-matching|cap=1"

// maxEmptySteps bounds consecutive steps with no valid proposal before the
// search concludes the neighborhood is exhausted.
const maxEmptySteps = 5

// proposalOverdraw is how many proposal attempts a batch may spend per
// requested candidate before giving up on filling it.
const proposalOverdraw = 8

// annealDecay is the per-step exponential temperature decay.
const annealDecay = 0.97

// Params are generator coordinates for parameter moves. Kind "" disables
// parameter moves (rewiring only), e.g. when the starting point is not a
// generator instance.
type Params struct {
	Kind    string // "jellyfish" | "xpander" | ""
	N       int    // jellyfish switch count ((Degree+1)*Lift for xpander)
	Degree  int    // network degree
	Lift    int    // xpander lift order
	Servers int    // servers per switch
}

// Envelope is the equal-cost feasibility region: candidates must host
// exactly the same servers and spend at most the same port dollars (Table 1
// static per-port cost) as the starting design.
type Envelope struct {
	Servers    int     `json:"servers"`
	MaxDollars float64 `json:"max_dollars"`
}

// Dollars prices a topology's switch ports under the paper's static
// per-port cost: network ports (both cable ends) plus server ports.
func Dollars(t *topology.Topology) float64 {
	return cost.StaticPortDollars() * float64(t.TotalPortsUsed())
}

// EnvelopeOf derives the equal-cost envelope from a starting design.
func EnvelopeOf(t *topology.Topology) Envelope {
	return Envelope{Servers: t.TotalServers(), MaxDollars: Dollars(t)}
}

// Admits reports whether a candidate stays within the envelope.
func (e Envelope) Admits(t *topology.Topology) bool {
	return t.TotalServers() == e.Servers && Dollars(t) <= e.MaxDollars+1e-6
}

// CandidateCache content-addresses candidate evaluations in a harness cache
// so searches are resumable and can share entries. Its BaseSpec pins
// everything an evaluation depends on besides the design content and the
// rung; empty means DefaultBaseSpec.
type CandidateCache = eval.Store

// Options tunes a search run. The zero value of every field takes a
// sensible default; Seed 0 is a valid seed.
type Options struct {
	// Seed drives every random choice: proposal draws, parameter-move build
	// seeds, annealing acceptance. Same seed (and same other options) means
	// a byte-identical trace.
	Seed int64
	// Budget caps coarse-rung GK candidate evaluations, the baseline
	// included (fine re-solves of batch winners ride free, like what-if
	// promotions). Default 64.
	Budget int
	// Batch is the number of candidate moves proposed per step. Default 8.
	Batch int
	// ProxyTop is how many proxy-ranked candidates of a batch get a coarse
	// GK solve. Default 4.
	ProxyTop int
	// CoarseEps/FineEps are the evaluation ladder's GK rungs (defaults and
	// bounds: eval.NormalizeRungs). Equal rungs disable the fine re-solve.
	CoarseEps float64
	FineEps   float64
	// Strategy is "anneal" (default) or "hillclimb".
	Strategy string
	// Temp is the initial annealing temperature (throughput units);
	// default 0.02, decaying by annealDecay per step.
	Temp float64
	// Workers bounds candidate-level parallelism (each GK solve runs
	// single-threaded, like the what-if engine). 0 means
	// graph.Parallelism(). Results are identical at any worker count.
	Workers int
	// Name is the best-found design's registered name. Default
	// "search-best".
	Name string
	// Ctx, if non-nil, cancels the search between evaluations; a canceled
	// run returns ctx.Err() and no result (already-cached candidate
	// evaluations survive for a resume).
	Ctx context.Context
	// Cache, if non-nil, makes the search resumable via content-addressed
	// candidate entries.
	Cache *CandidateCache
	// OnStep, if non-nil, observes each appended trace step (tests use it
	// to kill a search mid-run).
	OnStep func(Step)
}

func (o *Options) normalize() error {
	if o.Budget == 0 {
		o.Budget = 64
	}
	if o.Batch == 0 {
		o.Batch = 8
	}
	if o.ProxyTop == 0 {
		o.ProxyTop = 4
	}
	if o.Strategy == "" {
		o.Strategy = "anneal"
	}
	if o.Temp == 0 {
		o.Temp = 0.02
	}
	if o.Workers <= 0 {
		o.Workers = graph.Parallelism()
	}
	if o.Name == "" {
		o.Name = "search-best"
	}
	if o.Budget < 1 || o.Batch < 1 || o.ProxyTop < 1 {
		return fmt.Errorf("search: budget=%d batch=%d proxy_top=%d: need >= 1", o.Budget, o.Batch, o.ProxyTop)
	}
	if err := eval.NormalizeRungs(&o.CoarseEps, &o.FineEps); err != nil {
		return fmt.Errorf("search: %w", err)
	}
	switch o.Strategy {
	case "anneal", "hillclimb":
	default:
		return fmt.Errorf("search: unknown strategy %q (want anneal|hillclimb)", o.Strategy)
	}
	if o.Temp < 0 {
		return fmt.Errorf("search: temp=%g: need >= 0", o.Temp)
	}
	return nil
}

// Step is one trace entry. Everything in it is a pure function of
// (starting design, Options minus Cache/Workers/Ctx/OnStep), which is what
// the byte-identical-trace tests pin.
type Step struct {
	Step      int     `json:"step"`
	Move      string  `json:"move"` // winner move, or "none" for an empty batch
	Proposals int     `json:"proposals"`
	Proxy     float64 `json:"proxy"`
	Coarse    float64 `json:"coarse"`
	Fine      float64 `json:"fine"`
	Accepted  bool    `json:"accepted"`
	State     float64 `json:"state"` // accepted design's fine throughput after this step
	Best      float64 `json:"best"`  // best-found fine throughput after this step
}

// Result is a completed search.
type Result struct {
	BaselineName string  `json:"baseline_name"`
	BaselineHash string  `json:"baseline_hash"`
	Baseline     float64 `json:"baseline"` // fine-ε throughput of the start design
	// Best is the best-found design (>= baseline by construction: the
	// baseline is the initial best), named Options.Name.
	Best     *topology.Design `json:"best"`
	BestHash string           `json:"best_hash"`
	BestVal  float64          `json:"best_val"`
	BestStep int              `json:"best_step"`
	Steps    []Step           `json:"steps"`
	Envelope Envelope         `json:"envelope"`
	// Spent counts coarse-rung candidate evaluations charged to the budget
	// (cache hits included: budgets must not depend on cache state).
	Spent int `json:"spent"`
	// FineSolves counts fine-rung evaluations (deterministic).
	FineSolves int `json:"fine_solves"`
	// CacheHits counts evaluations served from the candidate cache. Run
	// accounting — varies with cache state, excluded from Trace.
	CacheHits int `json:"-"`
}

// f6 formats a throughput for the trace: fixed 6 decimals, so identical
// float64 values render identically.
func f6(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

// Trace renders the deterministic search trace: byte-identical across runs
// with equal seeds, at any worker count and any cache state.
func (r *Result) Trace() string {
	var b strings.Builder
	fmt.Fprintf(&b, "baseline: throughput %s (design %.12s)\n", f6(r.Baseline), r.BaselineHash)
	for _, s := range r.Steps {
		if s.Move == "none" {
			fmt.Fprintf(&b, "step %3d: no valid moves (state=%s best=%s)\n", s.Step, f6(s.State), f6(s.Best))
			continue
		}
		fmt.Fprintf(&b, "step %3d: move=%-24s cands=%d proxy=%s coarse=%s fine=%s accept=%t state=%s best=%s\n",
			s.Step, s.Move, s.Proposals, f6(s.Proxy), f6(s.Coarse), f6(s.Fine), s.Accepted, f6(s.State), f6(s.Best))
	}
	fmt.Fprintf(&b, "best: throughput %s at step %d (design %.12s)\n", f6(r.BestVal), r.BestStep, r.BestHash)
	return b.String()
}

// candidate is one proposed design under evaluation.
type candidate struct {
	topo   *topology.Topology
	params Params
	move   Move
	hash   string
}

// cloneTopo deep-copies a topology so moves on a candidate never touch the
// accepted state.
func cloneTopo(t *topology.Topology) *topology.Topology {
	return &topology.Topology{
		Name:        t.Name,
		G:           t.G.Clone(),
		Servers:     append([]int(nil), t.Servers...),
		SwitchPorts: t.SwitchPorts,
	}
}

// mix folds seed parts into one RNG seed (splitmix64 rounds), so every
// (seed, step, salt) triple gets an independent deterministic stream.
func mix(parts ...int64) int64 {
	x := uint64(0x9E3779B97F4A7C15)
	for _, p := range parts {
		x ^= uint64(p)
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
	}
	return int64(x)
}

// runner evaluates candidates on the shared ladder with content-addressed
// caching: every rung result is a pure function of (design, rung), whatever
// the worker count and whatever the cache already holds.
type runner struct {
	ladder             eval.Ladder
	workers            int
	store              eval.Store
	coarseKey, fineKey string
	cacheHits          atomic.Int64
}

// rung returns c's cached result at the rung named key, or solves and
// stores it. The instance is the longest-matching TM over the candidate's
// own racks (the near-worst-case demand is a function of the design, so
// every candidate is judged on its own worst case), cold, at unit capacity.
func (r *runner) rung(c *candidate, key string, solve func(eval.Problem) (eval.Rung, error)) (eval.Rung, error) {
	slot := r.store.Slot("search-cand", key, "design="+c.hash)
	var e eval.Rung
	if slot.Get(&e) {
		r.cacheHits.Add(1)
		return e, nil
	}
	t := c.topo
	m := tm.LongestMatching(t.G, t.ToRs(), func(rack int) int { return t.Servers[rack] })
	e, err := solve(eval.ProblemOf(t.G, m))
	if err == nil {
		slot.Put(&e)
	}
	return e, err
}

// coarse evaluates every candidate at the coarse rung, in parallel. Results
// are index-aligned with cands.
func (r *runner) coarse(cands []*candidate) ([]eval.Rung, error) {
	evals := make([]eval.Rung, len(cands))
	errs := make([]error, len(cands))
	graph.ParallelFor(r.workers, len(cands), func(_, i int) {
		evals[i], errs[i] = r.rung(cands[i], r.coarseKey, r.ladder.Coarse)
	})
	return evals, errors.Join(errs...)
}

// fine re-solves one candidate at the fine rung under the ladder's refine
// rule: warm from its own coarse duals, re-running the coarse solve when
// coarse came from the cache.
func (r *runner) fine(c *candidate, coarse eval.Rung) (eval.Rung, error) {
	return r.rung(c, r.fineKey, func(p eval.Problem) (eval.Rung, error) { return r.ladder.Fine(p, coarse) })
}

// Run searches for a same-cost design that beats the starting topology's
// near-worst-case GK throughput. params may be the zero value (rewiring
// moves only). The returned result is deterministic: a pure function of
// (base, params, Options.{Seed,Budget,Batch,ProxyTop,CoarseEps,FineEps,
// Strategy,Temp,Name}) — never of Workers, Cache state, or wall clock.
func Run(base *topology.Topology, params Params, opt Options) (*Result, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("search: invalid starting topology: %w", err)
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	env := EnvelopeOf(base)

	// The cache's default base spec is read into the runner's own copy: the
	// caller's value is shared between concurrent runs and is not ours to
	// write.
	rn := &runner{
		ladder:  eval.Ladder{CoarseEps: opt.CoarseEps, FineEps: opt.FineEps, Ctx: ctx},
		workers: opt.Workers,
		store:   eval.Store{BaseSpec: DefaultBaseSpec},
	}
	if opt.Cache != nil {
		rn.store.Cache = opt.Cache.Cache
		if opt.Cache.BaseSpec != "" {
			rn.store.BaseSpec = opt.Cache.BaseSpec
		}
	}
	rn.coarseKey, rn.fineKey = rn.ladder.CoarseKey(), rn.ladder.FineKey()

	// Baseline rung: the starting design is candidate zero — it spends one
	// budget unit and sets the value every move must beat.
	cur := cloneTopo(base)
	curParams := params
	baseDesign := topology.DesignOf(base)
	baseCand := &candidate{topo: cur, params: params, hash: baseDesign.Hash()}
	res := &Result{
		BaselineName: base.Name,
		BaselineHash: baseCand.hash,
		Envelope:     env,
	}
	coarseEvals, err := rn.coarse([]*candidate{baseCand})
	if err != nil {
		return nil, err
	}
	res.Spent = 1
	baseFine := coarseEvals[0]
	if rn.ladder.TwoRungs() {
		if baseFine, err = rn.fine(baseCand, coarseEvals[0]); err != nil {
			return nil, err
		}
		res.FineSolves++
	}
	res.Baseline = baseFine.Throughput
	stateVal := baseFine.Throughput

	best := topology.DesignOf(base)
	best.Name = opt.Name
	res.Best, res.BestHash, res.BestVal, res.BestStep = best, baseCand.hash, stateVal, 0

	emptyStreak := 0
	for step := 1; res.Spent < opt.Budget && emptyStreak < maxEmptySteps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(mix(opt.Seed, int64(step), 0x50524f50))) // "PROP"
		cands := proposeBatch(cur, curParams, env, rng, opt, step)
		if len(cands) == 0 {
			emptyStreak++
			st := Step{Step: step, Move: "none", State: stateVal, Best: res.BestVal}
			res.Steps = append(res.Steps, st)
			if opt.OnStep != nil {
				opt.OnStep(st)
			}
			continue
		}
		emptyStreak = 0

		// Proxy rung: rank the whole batch cheaply, keep the top few.
		proxies := make([]float64, len(cands))
		graph.ParallelFor(opt.Workers, len(cands), func(_, i int) {
			proxies[i] = Proxy(cands[i].topo)
		})
		order := make([]int, len(cands))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			if proxies[order[a]] != proxies[order[b]] {
				return proxies[order[a]] > proxies[order[b]]
			}
			return order[a] < order[b]
		})
		top := order
		if len(top) > opt.ProxyTop {
			top = top[:opt.ProxyTop]
		}
		if rem := opt.Budget - res.Spent; len(top) > rem {
			top = top[:rem]
		}
		sel := make([]*candidate, len(top))
		for i, idx := range top {
			sel[i] = cands[idx]
		}

		// Coarse rung: GK on the survivors, in parallel.
		evals, err := rn.coarse(sel)
		if err != nil {
			return nil, err
		}
		res.Spent += len(sel)
		win := 0
		for i := 1; i < len(evals); i++ {
			if evals[i].Throughput > evals[win].Throughput {
				win = i
			}
		}
		winner, winEval := sel[win], evals[win]

		// Fine rung: the batch winner only, warm from its own coarse duals.
		fineEval := winEval
		if rn.ladder.TwoRungs() {
			if fineEval, err = rn.fine(winner, winEval); err != nil {
				return nil, err
			}
			res.FineSolves++
		}

		delta := fineEval.Throughput - stateVal
		accepted := acceptMove(delta, step, opt)
		if accepted {
			cur = winner.topo
			curParams = winner.params
			stateVal = fineEval.Throughput
		}
		if fineEval.Throughput > res.BestVal {
			d := topology.DesignOf(winner.topo)
			d.Name = opt.Name
			res.Best, res.BestHash, res.BestVal, res.BestStep = d, winner.hash, fineEval.Throughput, step
		}
		st := Step{
			Step:      step,
			Move:      winner.move.String(),
			Proposals: len(cands),
			Proxy:     proxies[top[win]],
			Coarse:    winEval.Throughput,
			Fine:      fineEval.Throughput,
			Accepted:  accepted,
			State:     stateVal,
			Best:      res.BestVal,
		}
		res.Steps = append(res.Steps, st)
		if opt.OnStep != nil {
			opt.OnStep(st)
		}
	}
	res.CacheHits = int(rn.cacheHits.Load())
	return res, nil
}

// acceptMove decides accept/reject deterministically: improvements always,
// degradations under annealing with probability exp(delta/T) drawn from a
// per-step RNG, never under hill-climbing.
func acceptMove(delta float64, step int, opt Options) bool {
	if delta > 0 {
		return true
	}
	if opt.Strategy != "anneal" {
		return false
	}
	t := opt.Temp * math.Pow(annealDecay, float64(step-1))
	if t < 1e-6 {
		return false
	}
	r := rand.New(rand.NewSource(mix(opt.Seed, int64(step), 0x414343))) // "ACC"
	return math.Exp(delta/t) > r.Float64()
}

// proposeBatch draws up to opt.Batch distinct valid candidates from the
// current state: rewiring moves on clones of cur, parameter moves as fresh
// generator instances. Every candidate already satisfies the envelope and
// connectivity. Draws come serially from the per-step RNG, so the proposal
// stream is identical at any worker count.
func proposeBatch(cur *topology.Topology, p Params, env Envelope, rng *rand.Rand, opt Options, step int) []*candidate {
	_, regular := cur.G.IsRegular()
	seen := map[string]bool{}
	var out []*candidate
	for attempt := 0; len(out) < opt.Batch && attempt < opt.Batch*proposalOverdraw; attempt++ {
		var cand *candidate
		switch pickMoveKind(p, regular, rng) {
		case "param":
			np, m, ok := proposeParam(p, rng)
			if !ok {
				continue
			}
			m.Seed = mix(opt.Seed, int64(step), int64(attempt), 0x504152) // "PAR"
			if !preAdmitsParams(np, env) {
				continue
			}
			t := buildParams(np, m.Seed)
			if t == nil {
				continue
			}
			cand = &candidate{topo: t, params: np, move: m}
		case "rebalance":
			m, ok := ProposeRebalance(cur, rng)
			if !ok {
				continue
			}
			t := cloneTopo(cur)
			if ApplyChecked(t, m) != nil {
				continue
			}
			cand = &candidate{topo: t, params: p, move: m}
		default: // swap
			m, ok := ProposeSwap(cur, rng)
			if !ok {
				continue
			}
			t := cloneTopo(cur)
			if ApplyChecked(t, m) != nil {
				continue
			}
			cand = &candidate{topo: t, params: p, move: m}
		}
		if !env.Admits(cand.topo) {
			continue
		}
		cand.hash = topology.DesignOf(cand.topo).Hash()
		if seen[cand.hash] {
			continue
		}
		seen[cand.hash] = true
		out = append(out, cand)
	}
	return out
}

// pickMoveKind draws the move family: parameter moves only when generator
// coordinates exist, rebalance only on non-regular graphs (regular
// instances would just strand a port).
func pickMoveKind(p Params, regular bool, rng *rand.Rand) string {
	r := rng.Float64()
	if p.Kind != "" && r < 0.2 {
		return "param"
	}
	if !regular && r < 0.4 {
		return "rebalance"
	}
	return "swap"
}
