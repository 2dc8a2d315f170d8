package experiments

import (
	"fmt"

	"beyondft/internal/fluid"
	"beyondft/internal/graph"
	"beyondft/internal/netsim"
	"beyondft/internal/rotornet"
	"beyondft/internal/sim"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
	"beyondft/internal/workload"
)

// ExtensionRotorNet runs the comparison §8 defers to future work: RotorNet
// (traffic-agnostic rotor matchings, RotorLB two-hop) against the equal-cost
// static Xpander with HYB routing and the full-bandwidth fat-tree, on the
// skewed workload of §6.7. RotorNet gets the same ToR count as the Xpander
// and 1/δ of its network ports (δ = 1.5), per the §7 comparison rules.
func (c Config) ExtensionRotorNet() []*Figure {
	if !c.Full && !c.keepWindows {
		c.MeasureStart = 100 * sim.Millisecond
		c.MeasureEnd = 500 * sim.Millisecond
		c.MaxSimTime = 1200 * sim.Millisecond
	}
	ft := c.BaselineFatTree()
	xp := c.projecToRXpander()

	rotorPorts := int(float64(xp.D) / 1.5)
	if rotorPorts < 1 {
		rotorPorts = 1
	}
	serversPerToR := xp.TotalServers() / xp.NumSwitches()
	rcfg := rotornet.DefaultConfig(xp.NumSwitches(), serversPerToR, rotorPorts)

	perServer := []float64{2, 4, 6, 8, 10, 12}
	total := ft.TotalServers()
	lambdas := make([]float64, len(perServer))
	for i, r := range perServer {
		lambdas[i] = r * float64(total)
	}

	mkA := &Figure{ID: "fig-rotor-a", Title: "RotorNet vs static Xpander vs fat-tree, Skew(0.04,0.77)",
		XLabel: "lambda (flow-starts/s)", YLabel: "average FCT (ms)"}
	mkB := &Figure{ID: "fig-rotor-b", Title: mkA.Title,
		XLabel: mkA.XLabel, YLabel: "99th-pct FCT of <100KB flows (ms)"}

	// Static networks via the usual packet-sim path.
	for si, s := range []pktSetup{
		{label: "fat-tree", topo: &ft.Topology, routing: netsim.ECMP,
			pairs: workload.NewSkew(&ft.Topology, 0.04, 0.77, c.rng(81))},
		{label: "xpander-hyb", topo: &xp.Topology, routing: netsim.HYB,
			pairs: workload.NewSkew(&xp.Topology, 0.04, 0.77, c.rng(82))},
	} {
		var ya, yb []float64
		for li, lambda := range lambdas {
			res := c.runExperiment(s.topo, s.routing, 0, s.pairs, workload.PFabricWebSearch(),
				lambda, int64(4000*si+li))
			ya = append(ya, res.AvgFCTMs)
			yb = append(yb, res.P99ShortFCTMs)
		}
		mkA.Series = append(mkA.Series, Series{Label: s.label, X: lambdas, Y: ya})
		mkB.Series = append(mkB.Series, Series{Label: s.label, X: lambdas, Y: yb})
	}

	// RotorNet via its slotted simulator, same pair model over a shell
	// topology with the rotor fabric's server layout.
	shell := rotorShell(rcfg.NumToRs, rcfg.ServersPerToR)
	rotorPairs := workload.NewSkew(shell, 0.04, 0.77, c.rng(83))
	var ya, yb []float64
	for li, lambda := range lambdas {
		n := rotornet.NewNetwork(rcfg)
		exp := &rotornet.Experiment{
			Pairs:        rotorPairs,
			Sizes:        workload.PFabricWebSearch(),
			Lambda:       lambda,
			MeasureStart: c.MeasureStart,
			MeasureEnd:   c.MeasureEnd,
			MaxSimTime:   c.MaxSimTime,
			Seed:         c.Seed + int64(li),
		}
		res := exp.Run(n)
		ya = append(ya, res.AvgFCTMs)
		yb = append(yb, res.P99ShortFCTMs)
		if res.Overloaded {
			mkA.Notes = append(mkA.Notes,
				fmt.Sprintf("rotornet overloaded at lambda=%.0f", lambda))
		}
	}
	mkA.Series = append(mkA.Series, Series{Label: "rotornet", X: lambdas, Y: ya})
	mkB.Series = append(mkB.Series, Series{Label: "rotornet", X: lambdas, Y: yb})
	mkA.Notes = append(mkA.Notes,
		fmt.Sprintf("rotornet: %d ToRs x %d rotor ports (= xpander's %d / delta 1.5), slot %dus, reconfig %dus",
			rcfg.NumToRs, rcfg.Ports, xp.D, rcfg.SlotNs/1000, rcfg.ReconfigNs/1000),
		"expected per §8: RotorNet competitive on bulk, slot-floor latency for short flows")
	return []*Figure{mkA, mkB}
}

// rotorShell builds an edgeless Topology carrying only the server layout,
// for reusing the workload pair distributions with the rotor simulator.
func rotorShell(numToRs, serversPerToR int) *topology.Topology {
	servers := make([]int, numToRs)
	for i := range servers {
		servers[i] = serversPerToR
	}
	return &topology.Topology{Name: "rotor-shell", G: graph.New(numToRs), Servers: servers}
}

// ExtensionFailureResilience measures fluid-model throughput as random
// links fail — the classic operational argument for expanders the paper's
// deployability discussion (§4.2) alludes to: expanders degrade gracefully,
// fat-trees lose structured capacity.
func (c Config) ExtensionFailureResilience() *Figure {
	f := &Figure{
		ID:     "fig-failures",
		Title:  "Throughput under random link failures (longest-matching TM, x=0.5)",
		XLabel: "fraction of failed links",
		YLabel: "throughput per server",
	}
	ft := topology.NewFatTree(8)
	xp := c.CheapXpander()
	fracs := []float64{0, 0.05, 0.1, 0.2, 0.3}
	const trials = 3
	eval := func(t *topology.Topology, consec bool, salt int64) []float64 {
		rackRng := c.rng(salt)
		racks := workload.ActiveRacks(t, 0.5, consec, rackRng)
		serversOf := func(r int) int { return t.Servers[r] }
		baseline := 0.0
		var ys []float64
		for fi, frac := range fracs {
			sum, n := 0.0, 0
			for trial := 0; trial < trials; trial++ {
				rng := c.rng(salt + int64(100*fi+trial+1))
				edges := t.G.Edges()
				rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
				kill := int(frac * float64(len(edges)))
				g := graph.New(t.G.N())
				for _, e := range edges[kill:] {
					g.AddEdgeMulti(e.U, e.V, e.Mult)
				}
				n++
				if !g.Connected() {
					continue // contributes 0
				}
				m := tm.LongestMatching(g, racks, serversOf)
				sum += fluid.Throughput(g, m, fluid.GKOptions{Epsilon: c.Epsilon})
			}
			v := sum / float64(n)
			if fi == 0 {
				baseline = v
			}
			// Report degradation relative to the unfailed network so the
			// two (differently provisioned) networks are comparable.
			if baseline > 0 {
				ys = append(ys, v/baseline)
			} else {
				ys = append(ys, 0)
			}
		}
		return ys
	}
	xs := fracs
	f.Series = append(f.Series,
		Series{Label: "fat-tree-k8", X: xs, Y: eval(&ft.Topology, true, 910)},
		Series{Label: "xpander-2/3-cost", X: xs, Y: eval(&xp.Topology, false, 920)})
	f.YLabel = "throughput relative to the unfailed network"
	f.Notes = append(f.Notes,
		"extension beyond the paper's evaluation: graceful degradation of expanders vs fat-trees",
		fmt.Sprintf("each point averages %d random failure draws; active racks fixed per topology", trials))
	return f
}
