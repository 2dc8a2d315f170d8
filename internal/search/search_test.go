package search

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beyondft/internal/eval"
	"beyondft/internal/graph"
	"beyondft/internal/harness"
	"beyondft/internal/topology"
)

// testBase builds the small starting Jellyfish the search tests share.
func testBase(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.NewJellyfish(10, 3, 2, rand.New(rand.NewSource(42)))
}

// testOpts is a tiny but real search: annealing over swap+param moves with
// a two-rung ladder, cheap enough for `go test`.
func testOpts() Options {
	return Options{
		Seed:      7,
		Budget:    10,
		Batch:     4,
		ProxyTop:  2,
		CoarseEps: 0.3,
		FineEps:   0.15,
		Name:      "test-best",
	}
}

func testParams() Params {
	return Params{Kind: "jellyfish", N: 10, Degree: 3, Servers: 2}
}

// TestSearchDeterministicAcrossWorkers pins the headline contract: the same
// seed yields a byte-identical trace and best design at workers 1, 2 and
// NumCPU — proposal, ranking, evaluation and acceptance are all
// worker-count independent.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	var want *Result
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		opt := testOpts()
		opt.Workers = workers
		res, err := Run(testBase(t), testParams(), opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = res
			continue
		}
		if res.Trace() != want.Trace() {
			t.Fatalf("workers=%d: trace differs:\n--- want ---\n%s--- got ---\n%s", workers, want.Trace(), res.Trace())
		}
		if res.BestHash != want.BestHash || res.Best.Hash() != want.Best.Hash() {
			t.Fatalf("workers=%d: best design differs", workers)
		}
		if res.Spent != want.Spent || res.FineSolves != want.FineSolves {
			t.Fatalf("workers=%d: accounting differs: spent %d/%d fine %d/%d",
				workers, res.Spent, want.Spent, res.FineSolves, want.FineSolves)
		}
	}
	if want.Spent > testOpts().Budget {
		t.Fatalf("spent %d > budget %d", want.Spent, testOpts().Budget)
	}
	if len(want.Steps) == 0 {
		t.Fatal("search took no steps")
	}
}

// TestSearchBestWithinEnvelopeAndAboveBaseline checks the acceptance
// criterion: the best-found design builds, stays inside the equal-cost
// envelope, and its fine-ε throughput is at least the baseline's.
func TestSearchBestWithinEnvelopeAndAboveBaseline(t *testing.T) {
	base := testBase(t)
	res, err := Run(base, testParams(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.BestVal < res.Baseline {
		t.Fatalf("best %v < baseline %v", res.BestVal, res.Baseline)
	}
	built, err := res.Best.Build()
	if err != nil {
		t.Fatalf("best design does not build: %v", err)
	}
	if !res.Envelope.Admits(built) {
		t.Fatalf("best design escapes the envelope: %d servers $%v vs %+v",
			built.TotalServers(), Dollars(built), res.Envelope)
	}
	if built.Name != "test-best" {
		t.Fatalf("best design name %q, want test-best", built.Name)
	}
	// The trace ends with the best line; every step's Best is monotone.
	prev := 0.0
	for _, s := range res.Steps {
		if s.Best < prev {
			t.Fatalf("best regressed at step %d: %v -> %v", s.Step, prev, s.Best)
		}
		prev = s.Best
	}
}

// TestSearchResumeFromCache pins crash-recovery determinism: a run killed
// after a few accepted moves leaves cache entries behind; re-running the
// same search over that cache replays the prefix from cache and finishes
// with a trace and best design byte-identical to an uninterrupted run.
func TestSearchResumeFromCache(t *testing.T) {
	cacheDir := t.TempDir()
	openCache := func() *CandidateCache {
		c, err := harness.OpenCache(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		return &CandidateCache{Cache: c}
	}

	// Reference: uninterrupted, cache-less run.
	ref, err := Run(testBase(t), testParams(), testOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Kill the search after 2 accepted moves, mid-run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	accepted := 0
	opt := testOpts()
	opt.Cache = openCache()
	opt.Ctx = ctx
	opt.OnStep = func(s Step) {
		if s.Accepted {
			if accepted++; accepted >= 2 {
				cancel()
			}
		}
	}
	if _, err := Run(testBase(t), testParams(), opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	keys, err := opt.Cache.Cache.Keys()
	if err != nil || len(keys) == 0 {
		t.Fatalf("killed run left no cache entries (err=%v)", err)
	}

	// Resume: same search over the warm cache.
	opt2 := testOpts()
	opt2.Cache = openCache()
	res, err := Run(testBase(t), testParams(), opt2)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Fatal("resumed run hit the cache zero times")
	}
	if res.Trace() != ref.Trace() {
		t.Fatalf("resumed trace differs from uninterrupted run:\n--- want ---\n%s--- got ---\n%s", ref.Trace(), res.Trace())
	}
	if res.BestHash != ref.BestHash {
		t.Fatal("resumed best design differs from uninterrupted run")
	}

	// Third run: fully cached coarse rungs, still byte-identical.
	opt3 := testOpts()
	opt3.Cache = openCache()
	res3, err := Run(testBase(t), testParams(), opt3)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Trace() != ref.Trace() {
		t.Fatal("fully-cached run trace differs")
	}
	if res3.CacheHits < res.CacheHits {
		t.Fatalf("warm run hit cache %d times, cold-resume %d", res3.CacheHits, res.CacheHits)
	}
}

// TestSearchConcurrentRunsShareCache: two searches may share one
// CandidateCache value (the experiment harness hands the same one to every
// job). Run must treat it as read-only — it used to write the default base
// spec through the pointer, a data race `go test -race` reports — and both
// runs must still produce the uninterrupted trace.
func TestSearchConcurrentRunsShareCache(t *testing.T) {
	ref, err := Run(testBase(t), testParams(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	c, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shared := &CandidateCache{Cache: c}
	traces := make([]string, 4)
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := testOpts()
			opt.Cache = shared
			opt.Workers = 2
			res, err := Run(testBase(t), testParams(), opt)
			if err != nil {
				t.Error(err)
				return
			}
			traces[i] = res.Trace()
		}()
	}
	wg.Wait()
	for i, tr := range traces {
		if tr != ref.Trace() {
			t.Errorf("run %d over the shared cache: trace differs from the cache-less run", i)
		}
	}
	if shared.BaseSpec != "" {
		t.Fatalf("Run wrote %q into the caller's cache value", shared.BaseSpec)
	}
}

// TestSearchLaddersDoNotAlias: a fine result is seeded by the coarse duals,
// so two searches that share a fine ε but not a coarse one compute different
// fine numbers for the same design; sharing a cache must not hand one
// search the other's.
func TestSearchLaddersDoNotAlias(t *testing.T) {
	c, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := testOpts()
	first.CoarseEps = 0.4
	first.Cache = &CandidateCache{Cache: c}
	if _, err := Run(testBase(t), testParams(), first); err != nil {
		t.Fatal(err)
	}
	opt := testOpts()
	ref, err := Run(testBase(t), testParams(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Cache = &CandidateCache{Cache: c}
	res, err := Run(testBase(t), testParams(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace() != ref.Trace() {
		t.Fatalf("search over a cache populated at another coarse ε differs from a cold one:\n--- want ---\n%s--- got ---\n%s", ref.Trace(), res.Trace())
	}
}

// TestSearchHillclimbNeverDegrades checks the hillclimb strategy: the
// accepted state's throughput is non-decreasing along the whole trace.
func TestSearchHillclimbNeverDegrades(t *testing.T) {
	opt := testOpts()
	opt.Strategy = "hillclimb"
	opt.Budget = 8
	res, err := Run(testBase(t), testParams(), opt)
	if err != nil {
		t.Fatal(err)
	}
	prev := res.Baseline
	for _, s := range res.Steps {
		if s.State < prev {
			t.Fatalf("hillclimb accepted a degradation at step %d: %v -> %v", s.Step, prev, s.State)
		}
		prev = s.State
	}
}

// TestSearchOptionValidation exercises option normalization errors.
func TestSearchOptionValidation(t *testing.T) {
	base := testBase(t)
	bad := []Options{
		{Strategy: "genetic"},
		{FineEps: 0.6},
		{CoarseEps: 0.05, FineEps: 0.1},
		{Temp: -1},
	}
	for _, opt := range bad {
		if _, err := Run(base, Params{}, opt); err == nil {
			t.Errorf("options %+v accepted", opt)
		}
	}
}

// TestEnvelope pins the equal-cost admission rule.
func TestEnvelope(t *testing.T) {
	base := testBase(t)
	env := EnvelopeOf(base)
	if !env.Admits(base) {
		t.Fatal("envelope rejects its own baseline")
	}
	// Same cost, different server split: rejected (server count must match).
	bigger := topology.NewJellyfish(10, 3, 3, rand.New(rand.NewSource(1)))
	if env.Admits(bigger) {
		t.Fatal("envelope admitted a design with more servers")
	}
	// Same servers, higher degree: more ports, more dollars, rejected.
	pricier := topology.NewJellyfish(10, 5, 2, rand.New(rand.NewSource(1)))
	if env.Admits(pricier) {
		t.Fatal("envelope admitted a pricier design")
	}
}

// flightsOf runs one search from testBase and returns what became of its
// flights.
func flightsOf(t *testing.T, opt Options) (*Result, flightCounts) {
	t.Helper()
	var air flightCounts
	debugFlights = func(c flightCounts) { air = c }
	defer func() { debugFlights = nil }()
	res, err := Run(testBase(t), testParams(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, air
}

// TestSearchFlights holds the step loop to its flight accounting on the
// golden searches: with two workers every step consumes one flight and every
// misprediction costs exactly one more, a flight launched ahead is dropped
// only by a decision that went against it, and between them the golden
// searches see a flight kept and a flight dropped on either prediction —
// which is what makes the trace goldens a test of the speculation. One worker
// or one rung flies one flight per step.
func TestSearchFlights(t *testing.T) {
	var kept, dropped [2]int
	for name := range goldenSearches {
		opt := goldenOptions(name)
		opt.Workers = 2
		res, air := flightsOf(t, opt)
		accepted := 0
		for _, s := range res.Steps {
			if s.Accepted {
				accepted++
			}
		}
		rejected := len(res.Steps) - accepted
		if air.dropped[1] > rejected || air.dropped[0] > accepted {
			t.Errorf("%s: dropped %v flights (predicted reject, accept) over %d accepts and %d rejects",
				name, air.dropped, accepted, rejected)
		}
		ahead := air.kept[0] + air.kept[1] + air.dropped[0] + air.dropped[1]
		if opt.CoarseEps == opt.FineEps && ahead != 0 {
			t.Errorf("%s: %d flights launched ahead with no fine solve to fly beside", name, ahead)
		}
		if want := len(res.Steps) + air.dropped[0] + air.dropped[1]; air.launched != want {
			t.Errorf("%s: %d flights launched, want %d (steps + dropped)", name, air.launched, want)
		}
		for i := range kept {
			kept[i] += air.kept[i]
			dropped[i] += air.dropped[i]
		}

		opt.Workers = 1
		res, air = flightsOf(t, opt)
		if want := (flightCounts{launched: len(res.Steps)}); air != want {
			t.Errorf("%s: one worker flew %+v, want %+v", name, air, want)
		}
	}
	if kept[0] == 0 || kept[1] == 0 || dropped[0] == 0 || dropped[1] == 0 {
		t.Errorf("golden searches keep %v and drop %v flights (predicted reject, accept): want all four to occur", kept, dropped)
	}
}

// TestDroppedFlightAllocations gates what a misprediction costs in memory on
// the benchmark's start, Jellyfish(54, 9): a flight flown to its end in the
// scratch of a retired one — which is what a flight launched after a drop is —
// allocates a fraction of what the first did, which cloned its candidates
// and sized its workspaces (459 allocations and 124 KB against 2278 and
// 639 KB; before flights had a scratch, 3300 and 1.4 MB each). The benchmark
// counts dropped flights into allocs_per_op, and how many a search drops
// varies with its seed.
func TestDroppedFlightAllocations(t *testing.T) {
	base := topology.NewJellyfish(54, 9, 6, rand.New(rand.NewSource(1)))
	opt := Options{Seed: 1, Budget: 48}
	if err := opt.normalize(); err != nil {
		t.Fatal(err)
	}
	rn := &runner{
		opt:    opt,
		env:    EnvelopeOf(base),
		ladder: eval.Ladder{CoarseEps: opt.CoarseEps, FineEps: opt.FineEps},
		store:  eval.Store{BaseSpec: DefaultBaseSpec},
	}
	rn.coarseKey, rn.fineKey = rn.ladder.CoarseKey(), rn.ladder.FineKey()
	cur := &candidate{topo: base, params: Params{Kind: "jellyfish", N: 54, Degree: 9, Servers: 6}}
	fly := func() (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f := rn.launch(context.Background(), 1, cur, 1, opt.Budget-1)
		<-f.done
		f.cancel()
		if f.planErr != nil || f.fineErr != nil || len(f.plan.cands) != opt.Batch {
			t.Fatalf("flight: plan %v, fine %v, %d candidates", f.planErr, f.fineErr, len(f.plan.cands))
		}
		rn.retire(f, nil)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	firstMallocs, firstBytes := fly()
	mallocs, bytes := fly()
	const maxMallocs, maxBytes = 520, 144 << 10
	if mallocs > maxMallocs || bytes > maxBytes {
		t.Fatalf("a flight in a retired flight's scratch: %d allocations, %d bytes; want <= %d and <= %d (the first: %d, %d)",
			mallocs, bytes, maxMallocs, maxBytes, firstMallocs, firstBytes)
	}
	t.Logf("first flight %d allocations, %d bytes; the next %d, %d", firstMallocs, firstBytes, mallocs, bytes)
}

// deafCtx reports cancellation through Err alone: Done never closes, so the
// contexts derived from it never hear of it. No lawful Context behaves so; it
// is how a test gets Run to return on its caller's cancellation while the
// flights in the air are still running.
type deafCtx struct {
	context.Context
	canceled atomic.Bool
}

func (c *deafCtx) Err() error {
	if c.canceled.Load() {
		return context.Canceled
	}
	return nil
}

// TestSearchJoinsItsFlights: no goroutine Run starts outlives it, whichever
// way it returns — budget reached, neighborhood exhausted, the caller's
// context canceled between steps (from inside OnStep, with the next flight
// already in the air) or expiring inside a solve.
func TestSearchJoinsItsFlights(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// K4 has no valid swap, and being regular gets no rebalance proposal.
	k4 := &topology.Topology{Name: "k4", G: graph.New(4), Servers: []int{1, 1, 1, 1}, SwitchPorts: 4}
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			k4.G.AddEdge(u, v)
		}
	}
	type exit struct {
		name    string
		base    *topology.Topology
		params  Params
		arm     func(*testing.T, *Options)
		wantErr error
		check   func(*testing.T, *Result)
	}
	exits := []exit{
		{name: "budget", base: testBase(t), params: testParams(),
			check: func(t *testing.T, r *Result) {
				if r.Spent != testOpts().Budget {
					t.Errorf("spent %d of %d", r.Spent, testOpts().Budget)
				}
			}},
		{name: "exhausted", base: k4,
			check: func(t *testing.T, r *Result) {
				if len(r.Steps) != maxEmptySteps || r.Spent != 1 {
					t.Errorf("%d steps, %d spent; want %d empty steps on the baseline's unit", len(r.Steps), r.Spent, maxEmptySteps)
				}
			}},
		// Flights are children of the caller's context and would stop by
		// themselves on a lawful cancellation; deafCtx takes that help away,
		// so the step-2 flight in the air at the return ends only if Run
		// drops it: its fine solve alone is a hundred milliseconds.
		{name: "canceled in OnStep", base: topology.NewJellyfish(24, 5, 4, rand.New(rand.NewSource(3))),
			params: Params{Kind: "jellyfish", N: 24, Degree: 5, Servers: 4}, wantErr: context.Canceled,
			arm: func(_ *testing.T, o *Options) {
				ctx := &deafCtx{Context: context.Background()}
				o.Ctx, o.CoarseEps, o.FineEps, o.Budget = ctx, 0.25, 0.03, 40
				o.OnStep = func(Step) { ctx.canceled.Store(true) }
			}},
		// A budget no run reaches inside the deadline: it always expires
		// with flights in the air.
		{name: "deadline in a solve", base: testBase(t), params: testParams(), wantErr: context.DeadlineExceeded,
			arm: func(t *testing.T, o *Options) {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				t.Cleanup(cancel)
				o.Ctx, o.Budget = ctx, 1<<20
			}},
	}
	for _, e := range exits {
		t.Run(e.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			opt := testOpts()
			opt.Workers = 2
			if e.arm != nil {
				e.arm(t, &opt)
			}
			res, err := Run(e.base, e.params, opt)
			if !errors.Is(err, e.wantErr) {
				t.Fatalf("Run returned %v, want %v", err, e.wantErr)
			}
			if e.check != nil {
				e.check(t, res)
			}
			// On one processor a goroutine that has signaled its end runs on
			// to its exit before whoever waited for it runs again, so the
			// count is exact at once, bar a preemption in between, while a
			// flight left running would need many more turns than these to
			// finish.
			for i := 0; runtime.NumGoroutine() > before; i++ {
				if i == 2 {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before Run, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				runtime.Gosched()
			}
		})
	}
}
