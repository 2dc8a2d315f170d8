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

	"beyondft/internal/cost"
	"beyondft/internal/eval"
	"beyondft/internal/graph"
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
	// graph.Parallelism(). With more than one, the next step is planned and
	// fine-solved beside the current winner's fine solve (see Run). Results
	// are identical at any worker count.
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
	// OnStep, if non-nil, observes each appended trace step, in step order
	// on Run's own goroutine (tests use it to kill a search mid-run).
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
	// CacheHits counts the evaluations on the trajectory that were served
	// from the candidate cache; a flight that was dropped counts for nothing.
	// Run accounting, excluded from Trace: it varies with cache state, and —
	// when two steps in flight at once evaluate the same design — with which
	// of them got there first.
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

// scratch is the memory a flight works in: the topologies of candidates no
// longer wanted, for the next candidates to be copied into; the edge list of
// the state it proposes from; one evaluation workspace per coarse slot. Run
// hands the scratch of a retired flight to the next one launched, so a flight
// allocates little after the first two and a dropped one costs the run its
// time only. Which scratch a flight gets is, like everything on the
// trajectory, a function of the accept decisions.
type scratch struct {
	topos []*topology.Topology
	edges []graph.Edge
	ws    []eval.Workspace
	rngs  []*rand.Rand // by proxy worker
}

// clone deep-copies a topology, into one of the scratch's own if it has one,
// so moves on a candidate never touch the accepted state.
func (sc *scratch) clone(t *topology.Topology) *topology.Topology {
	var c *topology.Topology
	if n := len(sc.topos); n > 0 {
		c, sc.topos = sc.topos[n-1], sc.topos[:n-1]
	} else {
		c = &topology.Topology{G: new(graph.Graph)}
	}
	c.Name, c.SwitchPorts = t.Name, t.SwitchPorts
	c.G.CopyFrom(t.G)
	c.Servers = append(c.Servers[:0], t.Servers...)
	return c
}

// reclaim takes back the topology of a candidate nothing refers to any more,
// if clone made it: a parameter move's instance was built, at whatever size
// the move asked for, and is left to the collector.
func (sc *scratch) reclaim(c *candidate) {
	if c.move.Kind != "param" {
		sc.topos = append(sc.topos, c.topo)
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
	opt                Options
	env                Envelope
	ladder             eval.Ladder // Ctx unset: every flight solves under its own
	store              eval.Store
	coarseKey, fineKey string
	idle               []*scratch // of retired flights; Run's goroutine only
}

// takeScratch returns a retired flight's scratch, or a new one.
func (r *runner) takeScratch() *scratch {
	if n := len(r.idle); n > 0 {
		sc := r.idle[n-1]
		r.idle = r.idle[:n-1]
		return sc
	}
	return &scratch{ws: make([]eval.Workspace, r.opt.ProxyTop)}
}

// rungResult is a rung with where it came from: the cache, or a solve whose
// entry is written to slot only if the trajectory consumes the result (see
// runner.commit), so what a search leaves in the cache is a function of its
// trajectory and not of which flights happened to run.
type rungResult struct {
	eval.Rung
	slot eval.Slot
	hit  bool
}

// rung returns c's cached result at the rung named key, or solves it. The
// instance is the longest-matching TM over the candidate's own racks (the
// near-worst-case demand is a function of the design, so every candidate is
// judged on its own worst case), cold, at unit capacity.
func (r *runner) rung(ws *eval.Workspace, c *candidate, key string, solve func(eval.Problem) (eval.Rung, error)) (rungResult, error) {
	res := rungResult{slot: r.store.Slot("search-cand", key, "design="+c.hash)}
	if res.slot.Get(&res.Rung) {
		res.hit = true
		return res, nil
	}
	t := c.topo
	m := ws.LongestMatching(t.G, t.ToRs(), func(rack int) int { return t.Servers[rack] })
	var err error
	res.Rung, err = solve(ws.ProblemOf(t.G, m))
	return res, err
}

// commit takes a result the trajectory consumed into the run's accounts: a
// hit is counted, a solve is stored.
func (r *runner) commit(res *Result, e *rungResult) {
	if e.hit {
		res.CacheHits++
	} else {
		e.slot.Put(&e.Rung)
	}
}

// coarse evaluates every candidate (at most ProxyTop of them) at the coarse
// rung on up to `workers` goroutines, each in the workspace of its own slot.
// Results are index-aligned with cands.
func (r *runner) coarse(l eval.Ladder, workers int, sc *scratch, cands []*candidate) ([]rungResult, error) {
	evals := make([]rungResult, len(cands))
	errs := make([]error, len(cands))
	graph.ParallelFor(workers, len(cands), func(_, i int) {
		evals[i], errs[i] = r.rung(&sc.ws[i], cands[i], r.coarseKey, l.Coarse)
	})
	return evals, errors.Join(errs...)
}

// fine re-solves one candidate at the fine rung under the ladder's refine
// rule: warm from its own coarse duals, re-running the coarse solve when
// coarse came from the cache.
func (r *runner) fine(l eval.Ladder, ws *eval.Workspace, c *candidate, coarse eval.Rung) (rungResult, error) {
	return r.rung(ws, c, r.fineKey, func(p eval.Problem) (eval.Rung, error) { return l.Fine(p, coarse) })
}

// plan is one step taken as far as the coarse rung: a proposal batch drawn
// from a state, ranked by proxy, its top few solved coarsely and the winner
// picked. It is a pure function of (state, step, remaining budget).
type plan struct {
	cands  []*candidate // the whole batch; empty means no valid move
	coarse []rungResult // one per candidate solved, each a unit of budget
	win    int          // the winner's index into coarse
	winner *candidate
	proxy  float64 // the winner's
}

func (r *runner) plan(l eval.Ladder, workers int, sc *scratch, from *candidate, step, rem int) (plan, error) {
	opt := r.opt
	rng := rand.New(rand.NewSource(mix(opt.Seed, int64(step), 0x50524f50))) // "PROP"
	cands := proposeBatch(sc, from.topo, from.params, r.env, rng, opt, step)
	if len(cands) == 0 {
		return plan{}, nil
	}

	// Proxy rung: rank the whole batch cheaply, keep the top few.
	proxies := make([]float64, len(cands))
	for len(sc.rngs) < workers {
		sc.rngs = append(sc.rngs, rand.New(rand.NewSource(proxySeed)))
	}
	graph.ParallelFor(workers, len(cands), func(w, i int) {
		proxies[i] = proxy(cands[i].topo, sc.rngs[w])
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
	if len(top) > rem {
		top = top[:rem]
	}
	sel := make([]*candidate, len(top))
	for i, idx := range top {
		sel[i] = cands[idx]
	}

	// Coarse rung: GK on the survivors, in parallel.
	evals, err := r.coarse(l, workers, sc, sel)
	if err != nil {
		return plan{cands: cands}, err
	}
	win := 0
	for i := 1; i < len(evals); i++ {
		if evals[i].Throughput > evals[win].Throughput {
			win = i
		}
	}
	return plan{cands: cands, coarse: evals, win: win, winner: sel[win], proxy: proxies[top[win]]}, nil
}

// flight is one step computed ahead of the decision that leads to it: the
// plan from a state, then the fine solve of the plan's winner, on a
// goroutine of its own under a context of its own. Which flights run is not
// output-defining — only the accept decisions are — so Run may launch one
// from the state it expects a pending decision to leave and drop it if the
// decision goes the other way.
type flight struct {
	from    *candidate // the state it was planned from
	sc      *scratch   // its own from launch until Run retires it
	cancel  context.CancelFunc
	planned chan struct{} // closed once plan and planErr are set
	done    chan struct{} // closed once fine and fineErr are set as well
	plan    plan
	planErr error
	fine    rungResult // the winner's fine rung, on a two-rung ladder
	fineErr error
}

// launch starts the flight of one step from a state, planning on up to
// `workers` goroutines.
func (r *runner) launch(ctx context.Context, workers int, from *candidate, step, rem int) *flight {
	ctx, cancel := context.WithCancel(ctx)
	f := &flight{from: from, sc: r.takeScratch(), cancel: cancel, planned: make(chan struct{}), done: make(chan struct{})}
	l := r.ladder
	l.Ctx = ctx
	go func() {
		defer close(f.done)
		f.plan, f.planErr = r.plan(l, workers, f.sc, from, step, rem)
		close(f.planned)
		if p := &f.plan; f.planErr == nil && p.winner != nil && l.TwoRungs() {
			f.fine, f.fineErr = r.fine(l, &f.sc.ws[p.win], p.winner, p.coarse[p.win].Rung)
		}
	}()
	return f
}

// retire takes a finished flight's scratch back for the next launch, and with
// it the topology of every candidate of the flight but keep, the one (if any)
// that became the state.
func (r *runner) retire(f *flight, keep *candidate) {
	for _, c := range f.plan.cands {
		if c != keep {
			f.sc.reclaim(c)
		}
	}
	f.plan.cands = nil
	r.idle = append(r.idle, f.sc)
}

// drop cancels a flight and waits for its goroutine. What it had computed is
// discarded, its error with it: a dropped flight ends in context.Canceled by
// design.
func (f *flight) drop() {
	if f != nil {
		f.cancel()
		<-f.done
	}
}

// flightCounts says what became of a run's flights. Flights launched ahead
// of a decision are counted by the outcome they were launched on: [0]
// predicted reject, [1] predicted accept.
type flightCounts struct {
	launched      int
	kept, dropped [2]int
}

// debugFlights, when non-nil (set only by tests), receives the counts of
// every Run as it returns.
var debugFlights func(flightCounts)

// Run searches for a same-cost design that beats the starting topology's
// near-worst-case GK throughput. params may be the zero value (rewiring
// moves only). The returned result is deterministic: a pure function of
// (base, params, Options.{Seed,Budget,Batch,ProxyTop,CoarseEps,FineEps,
// Strategy,Temp,Name}) — never of Workers, Cache state, or wall clock.
//
// With more than one worker and a fine rung, two steps are in flight at a
// time: as soon as a step's winner is known the next step is launched beside
// the winner's fine solve, from the state the accept decision is predicted to
// leave, and relaunched if the decision disagrees (DESIGN.md §15, "Two steps
// in flight"). No goroutine Run starts outlives it.
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

	// The cache's default base spec is read into the runner's own copy: the
	// caller's value is shared between concurrent runs and is not ours to
	// write.
	rn := &runner{
		opt:    opt,
		env:    EnvelopeOf(base),
		ladder: eval.Ladder{CoarseEps: opt.CoarseEps, FineEps: opt.FineEps},
		store:  eval.Store{BaseSpec: DefaultBaseSpec},
	}
	if opt.Cache != nil {
		rn.store.Cache = opt.Cache.Cache
		if opt.Cache.BaseSpec != "" {
			rn.store.BaseSpec = opt.Cache.BaseSpec
		}
	}
	rn.coarseKey, rn.fineKey = rn.ladder.CoarseKey(), rn.ladder.FineKey()
	twoRungs := rn.ladder.TwoRungs()

	// Baseline rung: the starting design is candidate zero — it spends one
	// budget unit and sets the value every move must beat.
	baseDesign := topology.DesignOf(base)
	sc := rn.takeScratch()
	cur := &candidate{topo: sc.clone(base), params: params, hash: baseDesign.Hash()}
	res := &Result{
		BaselineName: base.Name,
		BaselineHash: cur.hash,
		Envelope:     rn.env,
	}
	l := rn.ladder
	l.Ctx = ctx
	coarseEvals, err := rn.coarse(l, 1, sc, []*candidate{cur})
	if err != nil {
		return nil, err
	}
	rn.commit(res, &coarseEvals[0])
	res.Spent = 1
	baseFine := coarseEvals[0]
	if twoRungs {
		if baseFine, err = rn.fine(l, &sc.ws[0], cur, coarseEvals[0].Rung); err != nil {
			return nil, err
		}
		rn.commit(res, &baseFine)
		res.FineSolves++
	}
	rn.idle = append(rn.idle, sc)
	res.Baseline = baseFine.Throughput
	stateVal := baseFine.Throughput

	baseDesign.Name = opt.Name
	res.Best, res.BestHash, res.BestVal, res.BestStep = baseDesign, cur.hash, stateVal, 0

	// head is the flight of the step being decided, next the one launched
	// ahead of that decision. Every return drops whatever is still in the air.
	var head, next *flight
	var air flightCounts
	defer func() {
		head.drop()
		next.drop()
		if debugFlights != nil {
			debugFlights(air)
		}
	}()
	emptyStreak := 0
	launch := func(workers int, from *candidate, step int) *flight {
		if res.Spent >= opt.Budget || emptyStreak >= maxEmptySteps {
			return nil
		}
		air.launched++
		return rn.launch(ctx, workers, from, step, opt.Budget-res.Spent)
	}
	// A second flight pays when there is a fine solve to run it beside and a
	// goroutine to run it on; it plans on one worker fewer, so that the fine
	// solve the decision waits for keeps a processor.
	ahead := twoRungs && opt.Workers > 1
	var deltas []float64 // fine − state of every move so far

	head = launch(opt.Workers, cur, 1)
	for step := 1; head != nil; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		<-head.planned
		if head.planErr != nil {
			return nil, head.planErr
		}
		p := head.plan
		if p.winner == nil {
			emptyStreak++
			st := Step{Step: step, Move: "none", State: stateVal, Best: res.BestVal}
			res.Steps = append(res.Steps, st)
			if opt.OnStep != nil {
				opt.OnStep(st)
			}
			<-head.done
			head.cancel()
			rn.retire(head, nil)
			head = launch(opt.Workers, cur, step+1)
			continue
		}
		emptyStreak = 0
		res.Spent += len(p.coarse)

		// The step's acceptance threshold is fixed by (Seed, step), so the
		// run's own past deltas say which way this one will probably go.
		rule := acceptanceAt(step, opt)
		likely := rule.likely(deltas)
		if ahead {
			from := cur
			if likely {
				from = p.winner
			}
			next = launch(opt.Workers-1, from, step+1)
		}
		for i := range p.coarse {
			rn.commit(res, &p.coarse[i])
		}

		// Fine rung: the batch winner only, warm from its own coarse duals.
		<-head.done
		fineEval := p.coarse[p.win]
		if twoRungs {
			if head.fineErr != nil {
				return nil, head.fineErr
			}
			fineEval = head.fine
			rn.commit(res, &fineEval)
			res.FineSolves++
		}

		delta := fineEval.Throughput - stateVal
		deltas = append(deltas, delta)
		accepted := rule.admits(delta)
		prev := cur
		if accepted {
			cur = p.winner
			stateVal = fineEval.Throughput
		}
		if next != nil {
			if next.from == cur {
				air.kept[btoi(likely)]++
			} else {
				air.dropped[btoi(likely)]++
				next.drop()
				rn.retire(next, nil)
				next = nil
			}
		}
		if next == nil {
			next = launch(opt.Workers, cur, step+1)
		}
		if fineEval.Throughput > res.BestVal {
			d := topology.DesignOf(p.winner.topo)
			d.Name = opt.Name
			res.Best, res.BestHash, res.BestVal, res.BestStep = d, p.winner.hash, fineEval.Throughput, step
		}
		st := Step{
			Step:      step,
			Move:      p.winner.move.String(),
			Proposals: len(p.cands),
			Proxy:     p.proxy,
			Coarse:    p.coarse[p.win].Throughput,
			Fine:      fineEval.Throughput,
			Accepted:  accepted,
			State:     stateVal,
			Best:      res.BestVal,
		}
		res.Steps = append(res.Steps, st)
		if opt.OnStep != nil {
			opt.OnStep(st)
		}
		head.cancel()
		if cur != prev {
			head.sc.reclaim(prev) // no flight planned from it is left
		}
		rn.retire(head, cur)
		head, next = next, nil
	}
	return res, nil
}

// acceptance is one step's accept rule with its random draw made:
// improvements always, degradations under annealing with probability
// exp(delta/temp) against a draw from the step's own RNG, never under
// hill-climbing or once the temperature has decayed away (temp 0). The rule
// is a function of (Seed, step) alone.
type acceptance struct{ temp, draw float64 }

func acceptanceAt(step int, opt Options) acceptance {
	if opt.Strategy != "anneal" {
		return acceptance{}
	}
	t := opt.Temp * math.Pow(annealDecay, float64(step-1))
	if t < 1e-6 {
		return acceptance{}
	}
	r := rand.New(rand.NewSource(mix(opt.Seed, int64(step), 0x414343))) // "ACC"
	return acceptance{temp: t, draw: r.Float64()}
}

func (a acceptance) admits(delta float64) bool {
	return delta > 0 || (a.temp > 0 && math.Exp(delta/a.temp) > a.draw)
}

// likely predicts the step's decision before its delta is known: accept iff
// at least half of the run's past deltas would pass this step's rule. With no
// past, accept.
func (a acceptance) likely(deltas []float64) bool {
	pass := 0
	for _, d := range deltas {
		if a.admits(d) {
			pass++
		}
	}
	return 2*pass >= len(deltas)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// proposeBatch draws up to opt.Batch distinct valid candidates from the
// current state: rewiring moves on clones of cur, parameter moves as fresh
// generator instances. Every candidate already satisfies the envelope and
// connectivity. Draws come serially from the per-step RNG, so the proposal
// stream is identical at any worker count.
func proposeBatch(sc *scratch, cur *topology.Topology, p Params, env Envelope, rng *rand.Rand, opt Options, step int) []*candidate {
	_, regular := cur.G.IsRegular()
	sc.edges = cur.G.AppendEdges(sc.edges[:0])
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
			m, ok := proposeRebalance(cur, sc.edges, rng)
			if !ok {
				continue
			}
			cand = &candidate{topo: sc.clone(cur), params: p, move: m}
		default: // swap
			m, ok := proposeSwap(cur.G, sc.edges, rng)
			if !ok {
				continue
			}
			cand = &candidate{topo: sc.clone(cur), params: p, move: m}
		}
		if cand.move.Kind != "param" && ApplyChecked(cand.topo, cand.move) != nil {
			sc.reclaim(cand)
			continue
		}
		if !env.Admits(cand.topo) {
			sc.reclaim(cand)
			continue
		}
		cand.hash = topology.HashOf(cand.topo)
		if seen[cand.hash] {
			sc.reclaim(cand)
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
