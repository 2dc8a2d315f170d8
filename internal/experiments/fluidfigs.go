package experiments

import (
	"fmt"
	"math"

	"beyondft/internal/cost"
	"beyondft/internal/fluid"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
	"beyondft/internal/workload"
)

// fluidXPoints is the active-server-fraction sweep of Figs. 5 and 6.
func fluidXPoints() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// throughputAt computes GK throughput for a longest-matching TM over an x
// fraction of t's racks.
func (c Config) throughputAt(t *topology.Topology, x float64, salt int64) float64 {
	rng := c.rng(salt)
	racks := workload.ActiveRacks(t, x, false, rng)
	m := tm.LongestMatching(t.G, racks, func(r int) int { return t.Servers[r] })
	return fluid.Throughput(t.G, m, fluid.GKOptions{Epsilon: c.Epsilon})
}

// Table1CostModel reproduces Table 1: per-port costs of static and dynamic
// network technologies, and the derived flexibility premium δ.
func Table1CostModel() *Figure {
	f := &Figure{
		ID:     "table1",
		Title:  "Cost per network port (static vs FireFly vs ProjecToR)",
		XLabel: "row",
		YLabel: "dollars per port (and δ relative to static)",
	}
	var xs []float64
	var dollars, deltas []float64
	for i, pc := range cost.Table1() {
		xs = append(xs, float64(i))
		dollars = append(dollars, pc.Dollars)
		deltas = append(deltas, cost.Delta(pc.Technology))
		f.Notes = append(f.Notes, fmt.Sprintf("row %d = %s", i, pc.Technology))
	}
	f.Series = append(f.Series,
		Series{Label: "$/port", X: xs, Y: dollars},
		Series{Label: "delta", X: xs, Y: deltas})
	f.Notes = append(f.Notes, "paper: static $215, firefly $370, projector $320-420; delta >= 1.5")
	return f
}

// Figure2TP renders the throughput-proportionality illustration: the TP
// curve min(α/x,1) against the fat-tree's step behaviour.
func Figure2TP() *Figure {
	const alpha = 1.0 / 3.0
	const k = 32
	f := &Figure{
		ID:     "fig2",
		Title:  "Throughput proportionality vs fat-tree (alpha=1/3, k=32)",
		XLabel: "active fraction x",
		YLabel: "throughput per server",
	}
	var xs, tp, ft []float64
	for x := 0.02; x <= 1.0001; x += 0.02 {
		xs = append(xs, x)
		tp = append(tp, fluid.ThroughputProportional(alpha, x))
		ft = append(ft, fluid.FatTreeCurve(alpha, k, x))
	}
	f.Series = append(f.Series,
		Series{Label: "throughput-prop", X: xs, Y: tp},
		Series{Label: "fat-tree", X: xs, Y: ft})
	return f
}

// Figure3Xpander reports the structure of the paper's Fig. 3 Xpander: 486
// 24-port switches, 3402 servers, 18 meta-nodes (6 pods of 3), and the
// cable-bundling numbers that make it cabling-friendly.
func (c Config) Figure3Xpander() *Figure {
	x := topology.NewXpander(17, 27, 7, c.rng(3))
	meta := x.D + 1
	bundles := meta * (meta - 1) / 2
	f := &Figure{
		ID:     "fig3",
		Title:  "Xpander structure (486 switches, 3402 servers)",
		XLabel: "quantity",
		YLabel: "count",
	}
	sgRng := c.rng(4)
	lambda2 := x.G.SecondEigenvalue(150, sgRng)
	f.Series = append(f.Series, Series{
		Label: "value",
		X:     []float64{0, 1, 2, 3, 4, 5, 6},
		Y: []float64{
			float64(x.NumSwitches()),
			float64(x.TotalServers()),
			float64(meta),
			float64(x.Lift),
			float64(bundles),
			float64(x.Lift), // cables per meta-node bundle
			lambda2,
		},
	})
	f.Notes = append(f.Notes,
		"rows: switches, servers, meta-nodes, switches/meta-node, cable bundles, cables/bundle, lambda2",
		fmt.Sprintf("near-Ramanujan check: lambda2=%.2f vs 2*sqrt(d-1)=%.2f", lambda2, 2*math.Sqrt(float64(x.D-1))))
	return f
}

// Figure4Toy reproduces the §4.1 toy example: 54 switches with 12 ports
// (6 servers each), 9 active racks. The restricted dynamic model is capped
// at 80% by the Moore bound while equal-cost static networks (δ=1.5) reach
// full throughput.
func (c Config) Figure4Toy() *Figure {
	f := &Figure{
		ID:     "fig4",
		Title:  "Toy example: static vs un/restricted dynamic (9 active racks)",
		XLabel: "row",
		YLabel: "throughput per server",
	}
	restricted := fluid.RestrictedDynamic(9, 6, 6)
	unrestricted := fluid.UnrestrictedDynamic(6, 6)

	// Static (a): 54 switches, 9 network ports, 6 servers (δ=1.5 cost parity).
	jfA := topology.NewJellyfish(54, 9, 6, c.rng(5))
	// Static (b): 81 switches, 12 ports, same 324 servers -> 4 servers, 8 net.
	jfB := topology.NewJellyfish(81, 8, 4, c.rng(45))
	toy := func(t *topology.Topology, salt int64) float64 {
		racks := workload.ActiveRacks(t, 9/float64(t.NumSwitches()), false, c.rng(salt))
		m := tm.AllToAll(racks[:9], func(r int) int { return t.Servers[r] })
		return fluid.Throughput(t.G, m, fluid.GKOptions{Epsilon: c.Epsilon})
	}
	f.Series = append(f.Series, Series{
		Label: "throughput",
		X:     []float64{0, 1, 2, 3},
		Y:     []float64{restricted, unrestricted, toy(jfA, 46), toy(jfB, 47)},
	})
	f.Notes = append(f.Notes,
		"rows: restricted-dyn bound, unrestricted-dyn, jellyfish(54x9net), jellyfish(81x8net)",
		"paper: restricted capped at 0.80; static networks achieve ~full throughput")
	return f
}

// slimflyConfig returns the Fig. 5(a) static network: SlimFly q=17 at paper
// scale (578 ToRs, 25 network / 24 server ports), q=5 scaled (50 ToRs, 7/6).
func (c Config) slimflyConfig() (*topology.SlimFly, int, int) {
	if c.Full {
		return topology.NewSlimFly(17, 24), 25, 24
	}
	return topology.NewSlimFly(5, 6), 7, 6
}

// longhopConfig returns the Fig. 5(b) network: Longhop 512 ToRs with 10
// network / 8 server ports at paper scale; 64 ToRs with 8/6 scaled.
func (c Config) longhopConfig() (*topology.Longhop, int, int) {
	if c.Full {
		return topology.NewLonghop(9, 10, 8), 10, 8
	}
	return topology.NewLonghop(6, 8, 6), 8, 6
}

// figure5 builds one of the Fig. 5 panels.
func (c Config) figure5(id string, static *topology.Topology, r, s int) *Figure {
	const delta = 1.5
	f := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Throughput vs active fraction: %s and same-equipment Jellyfish", static.Name),
		XLabel: "active fraction x",
		YLabel: "throughput per server",
	}
	jf := topology.NewJellyfishSameEquipment(static, c.rng(6))

	xs := fluidXPoints()
	var ySF, yJF, yTP, yUn, yRe, yFT []float64
	for i, x := range xs {
		ySF = append(ySF, c.throughputAt(static, x, int64(100+i)))
		yJF = append(yJF, c.throughputAt(jf, x, int64(100+i)))
	}
	alpha := yJF[len(yJF)-1]
	rDyn := float64(r) / delta
	alphaFT := (float64(r) / float64(s)) / 4.0 // full fat-tree uses 4 net ports/server
	for _, x := range xs {
		yTP = append(yTP, fluid.ThroughputProportional(alpha, x))
		yUn = append(yUn, fluid.UnrestrictedDynamic(rDyn, float64(s)))
		active := int(x*float64(static.NumSwitches()) + 0.5)
		yRe = append(yRe, fluid.RestrictedDynamic(active, int(rDyn), float64(s)))
		yFT = append(yFT, math.Min(1, alphaFT))
	}
	f.Series = append(f.Series,
		Series{Label: "throughput-prop", X: xs, Y: yTP},
		Series{Label: "jellyfish", X: xs, Y: yJF},
		Series{Label: "unrestricted-dyn", X: xs, Y: yUn},
		Series{Label: static.Name, X: xs, Y: ySF},
		Series{Label: "restricted-dyn", X: xs, Y: yRe},
		Series{Label: "equal-cost-fattree", X: xs, Y: yFT})
	f.Notes = append(f.Notes,
		fmt.Sprintf("delta=%.1f; dynamic gets %.2f network ports per ToR vs static's %d", delta, rDyn, r),
		"paper: static expanders match/exceed dynamic models in the skewed regime (small x)")
	return f
}

// Figure5a is the SlimFly panel of Fig. 5.
func (c Config) Figure5a() *Figure {
	sf, r, s := c.slimflyConfig()
	return c.figure5("fig5a", &sf.Topology, r, s)
}

// Figure5b is the Longhop panel of Fig. 5.
func (c Config) Figure5b() *Figure {
	lh, r, s := c.longhopConfig()
	return c.figure5("fig5b", &lh.Topology, r, s)
}

// Figure5Alt reproduces §5's alternative equal-cost comparison: instead of
// shrinking the dynamic network's ports, give the static Jellyfish δ× the
// resources — (a) δ× network ports per switch, (b) δ× switches — and verify
// it achieves full throughput in the regime of interest (the paper's toy
// example §4.1 made the same point with 54 vs 81 switches).
func (c Config) Figure5Alt() *Figure {
	const delta = 1.5
	f := &Figure{
		ID:     "fig5alt",
		Title:  "Equal-cost alternative: Jellyfish with delta-times the dynamic network's ports",
		XLabel: "active fraction x",
		YLabel: "throughput per server",
	}
	// Dynamic reference point: ToRs with 6 server ports and 6 flexible
	// ports (the §4.1 shape), 54 ToRs.
	const (
		n       = 54
		servers = 6
		dynPort = 6
	)
	xs := fluidXPoints()
	// (a) same switches, delta x ports: 9 network ports each.
	jfa := topology.NewJellyfish(n, int(delta*dynPort), servers, c.rng(51))
	// (b) delta x switches of the original port count: 81 switches hosting
	// the same 324 servers (4 each), 8 network ports.
	jfb := topology.NewJellyfishForServers(n*3/2, dynPort+servers, n*servers, c.rng(52))
	var ya, yb, yUn []float64
	for i, x := range xs {
		ya = append(ya, c.throughputAt(jfa, x, int64(500+i)))
		yb = append(yb, c.throughputAt(jfb, x, int64(500+i)))
		yUn = append(yUn, fluid.UnrestrictedDynamic(dynPort, servers))
	}
	f.Series = append(f.Series,
		Series{Label: "jf-delta-ports", X: xs, Y: ya},
		Series{Label: "jf-delta-switches", X: xs, Y: yb},
		Series{Label: "unrestricted-dyn", X: xs, Y: yUn})
	f.Notes = append(f.Notes,
		"paper §5: 'In both settings, even with delta=1.5, Jellyfish achieved full throughput in the regime of interest'")
	return f
}

// Figure6a compares Jellyfish networks built from 80/50/40% of a fat-tree's
// switch budget, hosting the fat-tree's full server population.
func (c Config) Figure6a() *Figure {
	k := 20
	if !c.Full {
		k = 8
	}
	ft := topology.NewFatTree(k)
	servers := ft.TotalServers()
	nFull := ft.NumSwitches()
	f := &Figure{
		ID:     "fig6a",
		Title:  fmt.Sprintf("Jellyfish at 80/50/40%% of a k=%d fat-tree's switches (%d servers)", k, servers),
		XLabel: "active fraction x",
		YLabel: "throughput per server",
	}
	xs := fluidXPoints()
	for _, frac := range []float64{0.8, 0.5, 0.4} {
		n := int(frac*float64(nFull) + 0.5)
		jf := topology.NewJellyfishForServers(n, k, servers, c.rng(int64(7000+int(frac*100))))
		var ys []float64
		for i, x := range xs {
			ys = append(ys, c.throughputAt(jf, x, int64(200+i)))
		}
		f.Series = append(f.Series, Series{Label: fmt.Sprintf("%.0f%%-fat", frac*100), X: xs, Y: ys})
	}
	f.Notes = append(f.Notes,
		"paper: with 50% of the switches, Jellyfish gives ~full bandwidth to any <40% subset")
	return f
}

// Figure6b shows the scaling trend: Jellyfish on the switch inventory of
// k∈{12,24,36} fat-trees (k∈{6,8,10} scaled) with twice the servers.
func (c Config) Figure6b() *Figure {
	ks := []int{12, 24, 36}
	if !c.Full {
		ks = []int{6, 8, 10}
	}
	f := &Figure{
		ID:     "fig6b",
		Title:  "Jellyfish with a fat-tree's switches and 2x its servers",
		XLabel: "active fraction x",
		YLabel: "throughput per server",
	}
	xs := fluidXPoints()
	for _, k := range ks {
		ft := topology.NewFatTree(k)
		jf := topology.NewJellyfishForServers(ft.NumSwitches(), k, 2*ft.TotalServers(),
			c.rng(int64(8000+k)))
		var ys []float64
		for i, x := range xs {
			ys = append(ys, c.throughputAt(jf, x, int64(300+i)))
		}
		f.Series = append(f.Series, Series{Label: fmt.Sprintf("k=%d", k), X: xs, Y: ys})
	}
	f.Notes = append(f.Notes, "paper: the advantage is consistent or improves with scale")
	return f
}
