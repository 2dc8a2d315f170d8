package search

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

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
