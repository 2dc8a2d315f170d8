package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"

	"beyondft/internal/eval"
	"beyondft/internal/fluid"
	"beyondft/internal/graph"
	"beyondft/internal/topology"
)

// cmdThroughput evaluates a topology's per-server throughput in the fluid-flow
// model (§5) under a chosen traffic matrix family and active fraction, and
// prints the dynamic-model baselines at equal cost.
//
//	beyondft throughput -topo slimfly -q 5 -servers 6 -tm longest-matching -x 0.4
//	beyondft throughput -topo jellyfish -n 54 -degree 9 -servers 6 -tm all-to-all -x 0.2 -exact
func cmdThroughput(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("throughput", flag.ExitOnError)
	spec := topoFlags(fs, eval.TopoSpec{Kind: "jellyfish", K: 8, N: 54, Degree: 9, Lift: 9, Servers: 6, Q: 5, Dim: 6})
	tmKind := fs.String("tm", "longest-matching", "longest-matching | permutation | all-to-all")
	x := fs.Float64("x", 1.0, "fraction of active racks")
	eps := fs.Float64("eps", eval.DefaultFineEps, "GK approximation epsilon")
	exact := fs.Bool("exact", false, "use the exact LP (small instances only)")
	delta := fs.Float64("delta", 1.5, "flexible-port cost premium")
	seed := fs.Int64("seed", 1, "random seed")
	designDir := fs.String("designs", "", "directory of *.json design files to load (e.g. search -out output)")
	fs.StringVar(&spec.Name, "name", "", "design: evaluate this registered design (-topo design)")
	workers := workersFlag(fs, "parallel kernel workers")
	fs.Parse(args)

	graph.SetParallelism(*workers)
	if *designDir != "" {
		if _, err := topology.LoadDesignDir(*designDir); err != nil {
			return fmt.Errorf("loading designs from %s: %w", *designDir, err)
		}
	}
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

	fmt.Printf("topology: %s (%d switches, %d servers)\n", t.Name, t.NumSwitches(), t.TotalServers())
	fmt.Printf("tm:       %s over %d racks (x=%.2f)\n", m.Name, len(racks), *x)

	if *exact {
		v, err := fluid.ThroughputExact(t.G, m)
		if err != nil {
			return fmt.Errorf("exact LP failed: %w", err)
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
	return nil
}
