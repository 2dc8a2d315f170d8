package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"beyondft/internal/eval"
	"beyondft/internal/fluid"
	"beyondft/internal/harness"
	"beyondft/internal/whatif"
)

// cmdWhatif sweeps a family of what-if scenarios — single-link /
// single-switch failures, k-link failure samples, rack additions — over a
// topology and prints the throughput distribution and the worst-k frontier.
// It is the command-line face of the incremental engine the daemon serves
// at /v1/whatif: one coarse-ε warm-started solve per scenario, fine-ε
// re-solves for the frontier only.
//
// stdout is a pure function of the flags (histogram, worst-k table): run it
// twice, or at different -workers, and the bytes match — `make whatif-smoke`
// relies on exactly that. Run-specific counters (cache hits, warm starts,
// routing iterations) go to stderr.
//
//	beyondft whatif -topo jellyfish -n 20 -degree 4 -servers 2 -family single-link
//	beyondft whatif -topo xpander -degree 6 -lift 9 -family k-link-sample -fk 3 -fsamples 64 -cache .harness-cache
func cmdWhatif(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ExitOnError)
	spec := topoFlags(fs, eval.TopoSpec{Kind: "jellyfish", K: 8, N: 20, Degree: 4, Lift: 9, Servers: 2, Q: 5, Dim: 6})
	tmKind := fs.String("tm", "longest-matching", "longest-matching | permutation | all-to-all")
	x := fs.Float64("x", 1.0, "fraction of active racks")
	seed := fs.Int64("seed", 1, "random seed (topology + workload)")

	family := fs.String("family", "single-link", "single-link | single-switch | k-link-sample | rack-add")
	fk := fs.Int("fk", 0, "k-link-sample: links failed per scenario (default 3)")
	fsamples := fs.Int("fsamples", 0, "sampled families: scenario count (defaults per family)")
	fracks := fs.Int("fracks", 0, "rack-add: racks added per scenario (default 1)")
	fdegree := fs.Int("fdegree", 0, "rack-add: uplinks per added rack (default 4)")
	fseed := fs.Int64("fseed", 1, "family sampling seed")

	coarse := fs.Float64("coarse", eval.DefaultCoarseEps, "coarse rung ε")
	fine := fs.Float64("fine", eval.DefaultFineEps, "fine rung ε (equal to -coarse: one rung, no frontier re-solve)")
	topk := fs.Int("topk", 0, "frontier size re-solved at fine ε (0 = default 8)")
	workers := workersFlag(fs, "parallel scenario workers")
	cacheDir := fs.String("cache", "", "content-addressed scenario cache directory ('' = none)")
	fs.Parse(args)

	// One stream drives the topology build, the rack choice and the
	// permutation pairing, in that order.
	rng := rand.New(rand.NewSource(*seed))
	t, err := buildTopo(spec, rng)
	if err != nil {
		return err
	}
	m, racks, err := spec.TM(t, *tmKind, *x, rng)
	if err != nil {
		return err
	}

	fam := whatif.FamilySpec{
		Kind: *family, K: *fk, Samples: *fsamples,
		Racks: *fracks, Degree: *fdegree, Seed: *fseed,
	}
	ladder := whatif.Ladder{CoarseEps: *coarse, FineEps: *fine, TopK: *topk}
	if err := ladder.Normalize(); err != nil {
		return err
	}
	scens, err := whatif.Scenarios(t.G, fam)
	if err != nil {
		return err
	}

	var sc *whatif.ScenarioCache
	if *cacheDir != "" {
		cache, err := harness.OpenCache(*cacheDir)
		if err != nil {
			return err
		}
		// The base spec pins everything a scenario result depends on
		// besides its delta and ε; entries are shared with other sweeps
		// of the same base (any family, any ladder).
		sc = &whatif.ScenarioCache{
			Cache: cache,
			BaseSpec: fmt.Sprintf("cmd-whatif|topo=%s|tm=%s|x=%g|seed=%d",
				t.Name, m.Name, *x, *seed),
		}
	}

	rep, err := whatif.Evaluate(t.G, fluid.Commodities(m), scens, whatif.Options{
		Ladder:  ladder,
		Workers: *workers,
		Ctx:     ctx,
		Cache:   sc,
	})
	if err != nil {
		return err
	}

	fmt.Printf("topology:  %s (%d switches, %d servers)\n", t.Name, t.NumSwitches(), t.TotalServers())
	fmt.Printf("tm:        %s over %d racks (x=%.2f)\n", m.Name, len(racks), *x)
	fmt.Printf("family:    %s (%d scenarios)\n", fam.Kind, len(scens))
	fmt.Printf("ladder:    coarse eps %.3g -> fine eps %.3g (top %d)\n",
		ladder.CoarseEps, ladder.FineEps, ladder.TopK)
	fmt.Printf("base:      throughput %.4f (bound %.4f, eps %.3g)\n\n",
		rep.Base.Throughput, rep.Base.UpperBound, rep.Base.Epsilon)

	w := (rep.Hist.Hi - rep.Hist.Lo) / float64(len(rep.Hist.Counts))
	fmt.Printf("throughput histogram (%d scenarios, %d bins over [%g,%g]):\n",
		rep.Hist.Total(), len(rep.Hist.Counts), rep.Hist.Lo, rep.Hist.Hi)
	for i, cnt := range rep.Hist.Counts {
		if cnt == 0 {
			continue
		}
		fmt.Printf("  [%.2f,%.2f) %5d\n", rep.Hist.Lo+float64(i)*w, rep.Hist.Lo+float64(i+1)*w, cnt)
	}

	if len(rep.WorstIDs) > 0 {
		byID := make(map[string]whatif.Result, len(rep.Results))
		for _, r := range rep.Results {
			byID[r.ID] = r
		}
		fmt.Printf("\nworst %d scenarios (fine eps %.3g):\n", len(rep.WorstIDs), ladder.FineEps)
		for i, id := range rep.WorstIDs {
			r := byID[id]
			fmt.Printf("  %2d. %-16s throughput %.4f  bound %.4f\n", i+1, id, r.Throughput, r.UpperBound)
		}
	}

	// Run-specific accounting: varies with cache state, never with -workers.
	fmt.Fprintf(os.Stderr, "whatif: evaluated=%d cache_hits=%d promoted=%d warm_hits=%d iterations=%d\n",
		rep.Evaluated, rep.CacheHits, rep.Promoted, rep.WarmHits, rep.Iterations)
	return nil
}
