package main

// The seven workloads. Work counts are fixed per (seed, -seconds, -scale):
// the input lists are generated from the seed before the program under
// test sees anything, and the program only ever receives those inputs.
func init() {
	workloads = []workloadDef{
		{
			Name: "cold_query", Loop: "closed, 1 client",
			Why: "closed loop, 1 client: 24 never-seen /v1/throughput specs (pinned instances, seeded order) on an empty node; GK does over 99% of the work, every op a cache write; the unit cost of everything else",
			run: runColdQuery,
		},
		{
			Name: "whatif_sweep", Loop: "batch, nproc scenario workers",
			Why: "batch, nproc workers: single-link whatif.Evaluate on two pinned Jellyfish-54 bases (2x243 scenarios); the same GK used warm-started and single-threaded over graph overlays",
			run: runWhatifSweep,
		},
		{
			Name: "search_batch", Loop: "batch, nproc candidate workers",
			Why: "batch, nproc workers: search.Run anneal from Jellyfish-54 and Xpander(9,6), budget 48 each, cold candidate cache; the second coarse-to-fine evaluator plus proxy and rewiring moves",
			run: runSearchBatch,
		},
		{
			Name: "netsim_run", Loop: "batch, single event loop",
			Why: "batch, one event loop: fat-tree k=8/ECMP and Xpander(5,9,3)/HYB legs of 30M events, pFabric sizes, Poisson arrivals; netsim+sim do all the work, fluid and serve none: the control workload",
			run: runNetsim,
		},
		{
			Name: "warm_serve", Loop: "closed, 4 x nproc clients",
			Why: "closed loop, 4 x nproc clients: 300k uniform picks from 64 pre-warmed specs on persistent loopback connections; every request an L1 hit, so serve's warm path and net/http do all the work",
			run: runWarmServe,
		},
		{
			Name: "serve_mixed", Loop: "open, Poisson at 100/300/2400 req/s",
			Why: "open loop, Poisson at 100/300/2400 req/s on nproc connections, timed from due time: Zipf(1.0) over 128 specs, L1 a quarter of the pool, 2% fresh n=24 specs; reads, writes, evictions, L2, admission",
			run: runServeMixed,
		},
		{
			Name: "cluster_serve", Loop: "closed, 4 x nproc clients round-robin",
			Why: "closed loop, 4 x nproc clients round-robin over 3 in-process nodes at R=2 with gossip: 300 cold n=24 specs in 20 shuffled rounds; the only workload with ring lookup, forward hop and replica push",
			run: runClusterServe,
		},
	}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
