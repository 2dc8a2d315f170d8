// Command search runs the automated topology design search (DESIGN.md §15):
// seeded annealing (or hill-climbing) over generator-parameter and
// random-graph rewiring moves, under an equal-cost envelope, with the
// spectral/path proxy filtering candidates and Garg–Könemann throughput on
// the near-worst-case (longest-matching) traffic matrix as the arbiter.
//
// stdout — the step trace and the summary line — is a pure function of the
// flags and the seed: run it twice, at any -workers, against any -cache
// state, and the bytes match (`make search-smoke` relies on exactly that).
// Run-specific counters go to stderr.
//
// The best-found design is written to -out as a JSON design file that
// cmd/throughput (-designs DIR -topo design -name NAME) and the daemon
// (-designs DIR, kind "design") evaluate as a first-class named topology.
//
// Example:
//
//	search -topo jellyfish -n 16 -degree 4 -servers 3 -budget 60 -seed 7 -out designs/
//	throughput -designs designs/ -topo design -name search-best
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"

	"beyondft/internal/eval"
	"beyondft/internal/graph"
	"beyondft/internal/harness"
	"beyondft/internal/search"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "search: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	kind := flag.String("topo", "jellyfish", "starting point: jellyfish | xpander")
	n := flag.Int("n", 16, "jellyfish: switch count")
	degree := flag.Int("degree", 4, "network degree")
	lift := flag.Int("lift", 4, "xpander lift")
	servers := flag.Int("servers", 3, "servers per switch")
	topoSeed := flag.Int64("topo-seed", 1, "starting-instance build seed")

	seed := flag.Int64("seed", 1, "search seed (proposals, builds, acceptance)")
	budget := flag.Int("budget", 64, "coarse GK candidate evaluations, baseline included")
	batch := flag.Int("batch", 8, "candidate moves proposed per step")
	proxyTop := flag.Int("proxy-top", 4, "proxy-ranked candidates per batch that get a GK solve")
	coarse := flag.Float64("coarse", eval.DefaultCoarseEps, "coarse rung ε")
	fine := flag.Float64("fine", eval.DefaultFineEps, "fine rung ε")
	strategy := flag.String("strategy", "anneal", "anneal | hillclimb")
	temp := flag.Float64("temp", 0, "initial annealing temperature (default 0.02)")
	moves := flag.String("moves", "all", "all | rewire (rewire disables generator-parameter moves)")

	name := flag.String("name", "search-best", "name for the best-found design")
	outDir := flag.String("out", "", "directory to write the best design as NAME.json ('' = none)")
	cacheDir := flag.String("cache", "", "content-addressed candidate cache directory ('' = none); a killed search resumes from it")
	workers := flag.Int("workers", graph.EnvParallelism(),
		"parallel candidate workers, 0 = GOMAXPROCS (default $"+graph.WorkersEnv+")")
	flag.Parse()

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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
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
