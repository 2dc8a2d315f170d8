// Command throughput evaluates a topology's per-server throughput in the
// fluid-flow model (§5) under a chosen traffic matrix family and active
// fraction, and prints the dynamic-model baselines at equal cost.
//
// Example:
//
//	throughput -topo slimfly -q 5 -servers 6 -tm longest-matching -x 0.4
//	throughput -topo jellyfish -n 54 -degree 9 -servers 6 -tm all-to-all -x 0.2 -exact
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"beyondft/internal/eval"
	"beyondft/internal/fluid"
	"beyondft/internal/graph"
	"beyondft/internal/topology"
)

func main() {
	kind := flag.String("topo", "jellyfish", "fattree | jellyfish | xpander | slimfly | longhop | design")
	k := flag.Int("k", 8, "fat-tree k")
	n := flag.Int("n", 54, "jellyfish: switch count")
	degree := flag.Int("degree", 9, "network degree")
	lift := flag.Int("lift", 9, "xpander lift")
	servers := flag.Int("servers", 6, "servers per switch")
	q := flag.Int("q", 5, "slimfly q")
	dim := flag.Int("dim", 6, "longhop dim")
	tmKind := flag.String("tm", "longest-matching", "longest-matching | permutation | all-to-all")
	x := flag.Float64("x", 1.0, "fraction of active racks")
	eps := flag.Float64("eps", eval.DefaultFineEps, "GK approximation epsilon")
	exact := flag.Bool("exact", false, "use the exact LP (small instances only)")
	delta := flag.Float64("delta", 1.5, "flexible-port cost premium")
	seed := flag.Int64("seed", 1, "random seed")
	designDir := flag.String("designs", "", "directory of *.json design files to load (e.g. cmd/search -out output)")
	designName := flag.String("name", "", "design: evaluate this registered design (-topo design)")
	workers := flag.Int("workers", graph.EnvParallelism(),
		"parallel kernel workers, 0 = GOMAXPROCS (default $"+graph.WorkersEnv+")")
	flag.Parse()

	graph.SetParallelism(*workers)
	if *designDir != "" {
		if _, err := topology.LoadDesignDir(*designDir); err != nil {
			fmt.Fprintf(os.Stderr, "loading designs from %s: %v\n", *designDir, err)
			os.Exit(1)
		}
	}
	// One stream drives the topology build, the rack choice and the
	// permutation pairing, in that order.
	rng := rand.New(rand.NewSource(*seed))
	spec := eval.TopoSpec{Kind: *kind, K: *k, N: *n, Degree: *degree, Lift: *lift,
		Servers: *servers, Q: *q, Dim: *dim, Name: *designName}
	t, err := spec.Build(rng)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m, racks, err := spec.TM(t, *tmKind, *x, rng)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("topology: %s (%d switches, %d servers)\n", t.Name, t.NumSwitches(), t.TotalServers())
	fmt.Printf("tm:       %s over %d racks (x=%.2f)\n", m.Name, len(racks), *x)

	if *exact {
		v, err := fluid.ThroughputExact(t.G, m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "exact LP failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("throughput/server (exact LP): %.4f\n", v)
	} else {
		res, _ := eval.Solve(context.Background(), eval.ProblemOf(t.G, m), *eps, graph.Parallelism(), false) // never canceled
		fmt.Printf("throughput/server (GK, eps=%.2f): %.4f (dual bound %.4f, %d phases)\n",
			*eps, min(res.Throughput, 1), res.UpperBound, res.Phases)
	}

	// Equal-cost dynamic baselines.
	if d, ok := t.G.IsRegular(); ok && t.TotalServers() > 0 {
		s := float64(t.TotalServers()) / float64(t.NumSwitches())
		rDyn := float64(d) / *delta
		fmt.Printf("unrestricted dynamic (delta=%.1f): %.4f\n",
			*delta, fluid.UnrestrictedDynamic(rDyn, s))
		fmt.Printf("restricted dynamic bound:          %.4f\n",
			fluid.RestrictedDynamic(len(racks), int(rDyn), s))
	}
}
