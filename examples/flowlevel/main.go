// Flow-level fast path: run a §6-style comparison at the PAPER's scale
// (k=16 fat-tree, 1024 servers vs the 216-switch Xpander) in seconds using
// the max-min fair flow-level simulator — the first-pass tool before
// confirming shapes with the packet-level engine.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"beyondft/internal/flowsim"
	"beyondft/internal/sim"
	"beyondft/internal/stats"
	"beyondft/internal/topology"
	"beyondft/internal/workload"
)

func main() {
	ft := topology.NewFatTree(16)                                     // 1024 servers, 320 switches
	xp := topology.NewXpander(11, 18, 5, rand.New(rand.NewSource(1))) // 216 switches, 33% cheaper

	fmt.Printf("paper-scale topologies: fat-tree %d servers, xpander %d servers (%.0f%% of cost)\n\n",
		ft.TotalServers(), xp.TotalServers(),
		100*float64(xp.TotalPortsUsed())/float64(ft.TotalPortsUsed()))

	run := func(t *topology.Topology, routing flowsim.RoutingScheme, label string) {
		cfg := flowsim.DefaultConfig()
		cfg.Routing = routing
		n := flowsim.NewNetwork(t, cfg)

		rng := rand.New(rand.NewSource(7))
		pairs := workload.NewSkew(t, 0.04, 0.77, rng)
		sizes := workload.PFabricWebSearch()
		lambda := 20.0 * float64(ft.TotalServers()) // 20 flows/s/server

		at := sim.Time(0)
		horizon := 200 * sim.Millisecond
		for at < horizon {
			at += sim.Time(rng.ExpFloat64() / lambda * float64(sim.Second))
			src, dst := pairs.Sample(rng)
			if n.Topo.ServerSwitch()[src] == n.Topo.ServerSwitch()[dst] {
				continue
			}
			n.ScheduleFlow(at, src, dst, sizes.Sample(rng))
		}
		wall := time.Now()
		n.Run(5 * sim.Second)
		elapsed := time.Since(wall)

		var fcts []float64
		done := 0
		for _, f := range n.Flows() {
			if f.Done {
				done++
				fcts = append(fcts, float64(f.FCT())/1e6)
			}
		}
		fmt.Printf("%-18s %5d flows  avg FCT %6.2f ms  p99 %7.2f ms  (simulated in %v)\n",
			label, done, stats.Mean(fcts), stats.Percentile(fcts, 99), elapsed.Round(time.Millisecond))
	}

	fmt.Println("Skew(0.04,0.77), pFabric sizes, 20 flows/s/server, 200 ms of traffic:")
	run(&ft.Topology, flowsim.ECMP, "fat-tree ECMP")
	run(&xp.Topology, flowsim.ECMP, "xpander ECMP")
	run(&xp.Topology, flowsim.HYB, "xpander HYB")
	fmt.Println("\nFlow-level rates are max-min fair and transport-free: use this for")
	fmt.Println("fast sweeps, then confirm with the packet-level engine (beyondft pktsim).")
}
