package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"beyondft/internal/eval"
	"beyondft/internal/harness"
	"beyondft/internal/search"
)

// cmdSearch runs the automated topology design search (DESIGN.md §15): seeded
// annealing (or hill-climbing) over generator-parameter and random-graph
// rewiring moves, under an equal-cost envelope, with the spectral/path
// proxy filtering candidates and Garg–Könemann throughput on the
// near-worst-case (longest-matching) traffic matrix as the arbiter.
//
// stdout — the step trace and the summary line — is a pure function of the
// flags and the seed: run it twice, at any -workers, against any -cache
// state, and the bytes match (`make search-smoke` relies on exactly that).
// Run-specific counters go to stderr.
//
// The best-found design is written to -out as a JSON design file that
// throughput (-designs DIR -topo design -name NAME) and the daemon
// (-designs DIR, kind "design") evaluate as a first-class named topology.
//
//	beyondft search -topo jellyfish -n 16 -degree 4 -servers 3 -budget 60 -seed 7 -out designs/
//	beyondft throughput -designs designs/ -topo design -name search-best
func cmdSearch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	kind := fs.String("topo", "jellyfish", "starting point: jellyfish | xpander")
	n := fs.Int("n", 16, "jellyfish: switch count")
	degree := fs.Int("degree", 4, "network degree")
	lift := fs.Int("lift", 4, "xpander lift")
	servers := fs.Int("servers", 3, "servers per switch")
	topoSeed := fs.Int64("topo-seed", 1, "starting-instance build seed")

	seed := fs.Int64("seed", 1, "search seed (proposals, builds, acceptance)")
	budget := fs.Int("budget", 64, "coarse GK candidate evaluations, baseline included")
	batch := fs.Int("batch", 8, "candidate moves proposed per step")
	proxyTop := fs.Int("proxy-top", 4, "proxy-ranked candidates per batch that get a GK solve")
	coarse := fs.Float64("coarse", eval.DefaultCoarseEps, "coarse rung ε")
	fine := fs.Float64("fine", eval.DefaultFineEps, "fine rung ε")
	strategy := fs.String("strategy", "anneal", "anneal | hillclimb")
	temp := fs.Float64("temp", 0, "initial annealing temperature (default 0.02)")
	moves := fs.String("moves", "all", "all | rewire (rewire disables generator-parameter moves)")

	name := fs.String("name", "search-best", "name for the best-found design")
	outDir := fs.String("out", "", "directory to write the best design as NAME.json ('' = none)")
	cacheDir := fs.String("cache", "", "content-addressed candidate cache directory ('' = none); a killed search resumes from it")
	workers := workersFlag(fs, "parallel candidate workers")
	fs.Parse(args)

	base, params, err := search.Start(
		search.Params{Kind: *kind, N: *n, Degree: *degree, Lift: *lift, Servers: *servers},
		rand.New(rand.NewSource(*topoSeed)))
	if err != nil {
		return err
	}
	if *moves == "rewire" {
		params = search.Params{}
	} else if *moves != "all" {
		return fmt.Errorf("unknown -moves %q (want all|rewire)", *moves)
	}

	var cc *search.CandidateCache
	if *cacheDir != "" {
		cache, err := harness.OpenCache(*cacheDir)
		if err != nil {
			return err
		}
		cc = &search.CandidateCache{Cache: cache}
	}

	res, err := search.Run(base, params, search.Options{
		Seed:      *seed,
		Budget:    *budget,
		Batch:     *batch,
		ProxyTop:  *proxyTop,
		CoarseEps: *coarse,
		FineEps:   *fine,
		Strategy:  *strategy,
		Temp:      *temp,
		Workers:   *workers,
		Name:      *name,
		Ctx:       ctx,
		Cache:     cc,
	})
	if err != nil {
		return err
	}

	env := res.Envelope
	fmt.Printf("search:   %s from %s (%d switches, %d servers, $%.0f)\n",
		*strategy, res.BaselineName, base.NumSwitches(), env.Servers, env.MaxDollars)
	fmt.Printf("budget:   %d candidates, batch %d, proxy top %d, eps %.3g -> %.3g, seed %d\n",
		*budget, *batch, *proxyTop, *coarse, *fine, *seed)
	fmt.Print(res.Trace())
	fmt.Printf("summary: baseline=%.6f best=%.6f improved=%t step=%d spent=%d design=%.12s\n",
		res.Baseline, res.BestVal, res.BestVal > res.Baseline, res.BestStep, res.Spent, res.BestHash)

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, *name+".json")
		if err := res.Best.WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "search: wrote best design to %s\n", path)
	}

	// Run-specific accounting. spent, fine_solves and steps are the
	// trajectory's; cache_hits varies with cache state and, rarely, with
	// timing at -workers > 1 (two steps in flight that evaluate one design).
	fmt.Fprintf(os.Stderr, "search: spent=%d fine_solves=%d cache_hits=%d steps=%d\n",
		res.Spent, res.FineSolves, res.CacheHits, len(res.Steps))
	return nil
}
