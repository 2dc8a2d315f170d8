package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"

	"beyondft/internal/cost"
	"beyondft/internal/topology"
)

// cmdTopogen builds any of the repository's topologies and prints its
// structural properties: sizes, degree, diameter, average shortest path,
// spectral gap, and port/cost accounting.
//
//	beyondft topogen -topo fattree -k 16
//	beyondft topogen -topo xpander -degree 11 -lift 18 -servers 5
//	beyondft topogen -topo jellyfish -n 216 -degree 11 -servers 5
//	beyondft topogen -topo slimfly -q 17 -servers 24
//	beyondft topogen -topo longhop -dim 9 -degree 10 -servers 8
//	beyondft topogen -topo fattree -k 16 -cost 0.77
func cmdTopogen(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("topogen", flag.ExitOnError)
	kind := fs.String("topo", "fattree", "fattree | jellyfish | xpander | slimfly | longhop | dragonfly | lps")
	k := fs.Int("k", 16, "fat-tree k")
	costFrac := fs.Float64("cost", 1.0, "fat-tree: build at this fraction of full cost")
	n := fs.Int("n", 216, "jellyfish: switch count")
	degree := fs.Int("degree", 11, "network degree (jellyfish/xpander/longhop)")
	lift := fs.Int("lift", 18, "xpander: switches per meta-node")
	servers := fs.Int("servers", 5, "servers per switch")
	q := fs.Int("q", 17, "slimfly: prime q = 1 mod 4")
	dim := fs.Int("dim", 9, "longhop: dimension (2^dim switches)")
	dfA := fs.Int("a", 4, "dragonfly: routers per group")
	dfH := fs.Int("h", 2, "dragonfly: global links per router")
	lpsP := fs.Int("p", 5, "lps: generator prime p (p+1 = degree)")
	lpsQ := fs.Int("lpsq", 13, "lps: field prime q")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	rng := rand.New(rand.NewSource(*seed))
	var t *topology.Topology
	switch *kind {
	case "fattree":
		var ft *topology.FatTree
		if *costFrac < 1.0 {
			ft = topology.NewFatTreeAtCost(*k, *costFrac)
		} else {
			ft = topology.NewFatTree(*k)
		}
		t = &ft.Topology
		fmt.Printf("fat-tree k=%d, core oversubscription %.2f\n", ft.K, ft.OversubscriptionRatio())
	case "jellyfish":
		t = topology.NewJellyfish(*n, *degree, *servers, rng)
	case "xpander":
		x := topology.NewXpander(*degree, *lift, *servers, rng)
		t = &x.Topology
		fmt.Printf("xpander: %d meta-nodes x %d switches, %d cable bundles of %d cables\n",
			x.D+1, x.Lift, (x.D+1)*x.D/2, x.Lift)
	case "slimfly":
		sf := topology.NewSlimFly(*q, *servers)
		t = &sf.Topology
	case "longhop":
		lh := topology.NewLonghop(*dim, *degree, *servers)
		t = &lh.Topology
		fmt.Printf("longhop generators: %d (incl. %d unit vectors)\n", len(lh.Generators), lh.Dim)
	case "dragonfly":
		df := topology.NewDragonFly(*dfA, *dfH, *servers)
		t = &df.Topology
		fmt.Printf("dragonfly: %d groups of %d routers\n", df.Groups(), df.A)
	case "lps":
		l := topology.NewLPS(*lpsP, *lpsQ, *servers)
		t = &l.Topology
		group := "PSL"
		if l.OverPGL {
			group = "PGL"
		}
		fmt.Printf("lps: Ramanujan graph X^{%d,%d} over %s(2,%d)\n", l.P, l.Q, group, l.Q)
	default:
		return fmt.Errorf("unknown topology %q", *kind)
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("invalid topology: %w", err)
	}

	fmt.Printf("name:            %s\n", t.Name)
	fmt.Printf("switches:        %d\n", t.NumSwitches())
	fmt.Printf("servers:         %d\n", t.TotalServers())
	fmt.Printf("cables:          %d\n", t.Cables())
	fmt.Printf("ports (network): %d\n", t.NetworkPorts())
	fmt.Printf("ports (total):   %d\n", t.TotalPortsUsed())
	fmt.Printf("port cost:       $%.0f (static, Table 1 prices)\n",
		float64(t.TotalPortsUsed())*cost.StaticPortDollars())
	if d, ok := t.G.IsRegular(); ok {
		fmt.Printf("network degree:  %d (regular)\n", d)
		l2 := t.G.SecondEigenvalue(200, rng)
		fmt.Printf("lambda2:         %.3f (Ramanujan bound 2*sqrt(d-1) = %.3f)\n",
			l2, 2*math.Sqrt(float64(d-1)))
	}
	ps := t.G.PathStats() // one parallel APSP sweep covers both rows
	fmt.Printf("diameter:        %d\n", ps.Diameter)
	fmt.Printf("avg path:        %.3f hops\n", ps.Mean)
	return nil
}
