package workload

import (
	"math"
	"math/rand"
	"testing"

	"beyondft/internal/graph"
	"beyondft/internal/netsim"
	"beyondft/internal/sim"
	"beyondft/internal/topology"
)

func TestPFabricMeanMatchesPaper(t *testing.T) {
	d := PFabricWebSearch()
	// Fig. 8 annotates "Mean = 2.4MB".
	if d.Mean() < 2.2e6 || d.Mean() > 2.6e6 {
		t.Fatalf("pfabric mean = %.0f, want ~2.4e6", d.Mean())
	}
	// Empirical mean over many samples should agree with the analytic mean.
	rng := rand.New(rand.NewSource(1))
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	emp := sum / n
	if math.Abs(emp-d.Mean())/d.Mean() > 0.05 {
		t.Fatalf("empirical mean %.0f deviates from analytic %.0f", emp, d.Mean())
	}
}

func TestPFabricShortFlowMass(t *testing.T) {
	// Roughly half the flows are "short" (<100 KB) in the web-search mix.
	d := PFabricWebSearch()
	rng := rand.New(rand.NewSource(2))
	short := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if d.Sample(rng) < 100_000 {
			short++
		}
	}
	frac := float64(short) / n
	if frac < 0.45 || frac < 0.40 || frac > 0.75 {
		t.Fatalf("short-flow fraction = %.2f, want roughly 0.5-0.6", frac)
	}
}

func TestParetoHULLMean(t *testing.T) {
	p := NewParetoHULL()
	if math.Abs(p.Mean()-100e3)/100e3 > 0.02 {
		t.Fatalf("analytic mean = %.0f, want 100e3", p.Mean())
	}
	rng := rand.New(rand.NewSource(3))
	sum := 0.0
	const n = 300000
	for i := 0; i < n; i++ {
		v := p.Sample(rng)
		if v < 100 || v > 1_000_000_001 {
			t.Fatalf("sample %d outside bounds", v)
		}
		sum += float64(v)
	}
	emp := sum / n
	if math.Abs(emp-100e3)/100e3 > 0.10 {
		t.Fatalf("empirical mean %.0f, want ~100e3", emp)
	}
}

func TestParetoHULLMostFlowsAreShort(t *testing.T) {
	// Fig. 8/§6.5: the 90th percentile is below 100 KB.
	p := NewParetoHULL()
	if c := p.CDFValue(100e3); c < 0.9 {
		t.Fatalf("P(X<=100KB) = %.3f, want >= 0.9", c)
	}
	if p.CDFValue(p.Mean()) < 0.8 {
		t.Fatalf("heavy tail expected: most flows below the mean")
	}
	if p.CDFValue(50) != 0 || p.CDFValue(2e9) != 1 {
		t.Fatalf("CDF bounds wrong")
	}
}

func TestDiscreteCDFValidation(t *testing.T) {
	for _, bad := range []struct {
		sizes []int64
		cdf   []float64
	}{
		{[]int64{10, 20}, []float64{0.5, 0.9}}, // doesn't end at 1
		{[]int64{10, 20}, []float64{0.9, 0.5}}, // decreasing
		{[]int64{10}, []float64{0.5, 1.0}},     // length mismatch
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad CDF %v accepted", bad)
				}
			}()
			NewDiscreteCDF("bad", bad.sizes, bad.cdf)
		}()
	}
}

func smallXpander(t *testing.T) *topology.Topology {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return &topology.NewXpander(5, 9, 3, rng).Topology
}

func TestActiveRacks(t *testing.T) {
	topo := smallXpander(t)
	rng := rand.New(rand.NewSource(8))
	racks := ActiveRacks(topo, 0.5, false, rng)
	if len(racks) != 27 {
		t.Fatalf("got %d racks, want 27 (half of 54)", len(racks))
	}
	seen := map[int]bool{}
	for _, r := range racks {
		if seen[r] {
			t.Fatalf("duplicate rack %d", r)
		}
		seen[r] = true
	}
	// Tiny fraction still yields at least 2 racks.
	if got := ActiveRacks(topo, 0.001, false, rng); len(got) != 2 {
		t.Fatalf("minimum active racks = %d, want 2", len(got))
	}
}

func TestA2ASamplesOnlyActiveServers(t *testing.T) {
	topo := smallXpander(t)
	rng := rand.New(rand.NewSource(9))
	racks := []int{0, 1, 2}
	a := NewA2A(topo, racks)
	if a.ActiveServers() != 9 {
		t.Fatalf("active servers = %d, want 9", a.ActiveServers())
	}
	valid := map[int]bool{}
	for _, r := range racks {
		for i := 0; i < 3; i++ {
			valid[r*3+i] = true
		}
	}
	for i := 0; i < 1000; i++ {
		s, d := a.Sample(rng)
		if s == d {
			t.Fatalf("self flow")
		}
		if !valid[s] || !valid[d] {
			t.Fatalf("flow endpoints (%d,%d) outside active racks", s, d)
		}
	}
}

func TestPermuteRespectsMatching(t *testing.T) {
	topo := smallXpander(t)
	rng := rand.New(rand.NewSource(10))
	racks := []int{0, 1, 2, 3}
	p := NewPermute(topo, racks, rng)
	rackOf := func(server int) int { return server / 3 }
	// Build the matched-pair set from samples; each rack must appear with
	// exactly one partner.
	partner := map[int]int{}
	for i := 0; i < 2000; i++ {
		s, d := p.Sample(rng)
		rs, rd := rackOf(s), rackOf(d)
		if rs == rd {
			t.Fatalf("intra-rack flow in permutation workload")
		}
		if old, ok := partner[rs]; ok && old != rd {
			t.Fatalf("rack %d has two partners: %d and %d", rs, old, rd)
		}
		partner[rs] = rd
	}
	if len(partner) != 4 {
		t.Fatalf("expected all 4 racks to appear, got %d", len(partner))
	}
	for a, b := range partner {
		if partner[b] != a {
			t.Fatalf("matching not symmetric: %d->%d but %d->%d", a, b, b, partner[b])
		}
	}
}

func TestSkewHotFraction(t *testing.T) {
	topo := smallXpander(t)
	rng := rand.New(rand.NewSource(11))
	s := NewSkew(topo, 0.04, 0.77, rng)
	// The ProjecToR summary statistic: ~77% of mass between hot pairs is not
	// exactly preserved at rack granularity because hot-cold pairs exist,
	// but hot racks must dominate: the sampled hot-hot fraction should far
	// exceed the uniform baseline.
	nHot := 2 // round(0.04*54)
	hot := map[int]bool{}
	for i, w := range s.weight {
		if w == 0.77/float64(nHot) {
			hot[s.racks[i]] = true
		}
	}
	if len(hot) != nHot {
		t.Fatalf("%d hot racks, want %d", len(hot), nHot)
	}
	uniform := float64(nHot*(nHot-1)) / float64(54*53)
	// Empirically, flows should hit hot racks much more often than cold.
	rackOf := func(server int) int { return server / 3 }
	counts := map[int]int{}
	hotHot := 0
	const samples = 20000
	for i := 0; i < samples; i++ {
		a, b := s.Sample(rng)
		counts[rackOf(a)]++
		counts[rackOf(b)]++
		if hot[rackOf(a)] && hot[rackOf(b)] {
			hotHot++
		}
	}
	if hf := float64(hotHot) / samples; hf < 20*uniform {
		t.Fatalf("hot-hot mass %.4f not concentrated (uniform %.6f)", hf, uniform)
	}
	max, sum := 0, 0
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(sum) < 0.2 {
		t.Fatalf("hottest rack carries %.2f of endpoints; expected ~0.385 for phi=0.77, theta=0.04", float64(max)/float64(sum))
	}
}

func TestProjecToRLikeConcentration(t *testing.T) {
	topo := smallXpander(t)
	rng := rand.New(rand.NewSource(12))
	pm := NewProjecToRLike(topo, 0.04, 0.77, rng)
	rackOf := func(server int) int { return server / 3 }
	type pair struct{ a, b int }
	counts := map[pair]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		s, d := pm.Sample(rng)
		counts[pair{rackOf(s), rackOf(d)}]++
	}
	// The top 4% of rack pairs should carry ~77% of flows.
	var all []int
	for _, c := range counts {
		all = append(all, c)
	}
	total := 0
	for _, c := range all {
		total += c
	}
	// Sort descending and take the top-4% count of ALL possible pairs.
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j] > all[i] {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	nPairs := 54 * 53
	topK := int(0.04*float64(nPairs) + 0.5)
	if topK > len(all) {
		topK = len(all)
	}
	topSum := 0
	for i := 0; i < topK; i++ {
		topSum += all[i]
	}
	frac := float64(topSum) / float64(total)
	if frac < 0.70 || frac > 0.85 {
		t.Fatalf("top-4%% pairs carry %.2f of flows, want ~0.77", frac)
	}
}

func TestTwoRacks(t *testing.T) {
	topo := smallXpander(t)
	tr := NewTwoRacks(topo, 0, 1, 3)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		s, d := tr.Sample(rng)
		rs, rd := s/3, d/3
		if !((rs == 0 && rd == 1) || (rs == 1 && rd == 0)) {
			t.Fatalf("flow (%d,%d) not between the two racks", s, d)
		}
	}
	if tr.ActiveServers() != 6 {
		t.Fatalf("active servers = %d, want 6", tr.ActiveServers())
	}
}

func TestExperimentRunsAndMeasures(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	topo := &topology.Topology{Name: "pair", G: g, Servers: []int{4, 4}, SwitchPorts: 5}
	pairs := NewA2A(topo, []int{0, 1})
	sizes := NewDiscreteCDF("fixed", []int64{50_000}, []float64{1})
	exp := DefaultExperiment(pairs, sizes, 2000,
		10*sim.Millisecond, 40*sim.Millisecond, 500*sim.Millisecond, 1)
	cfg := netsim.DefaultConfig()
	net := netsim.NewNetwork(topo, cfg)
	res := exp.Run(net)
	if res.MeasuredFlows < 20 {
		t.Fatalf("measured %d flows, want dozens at 2000/s over 30ms", res.MeasuredFlows)
	}
	if res.Overloaded {
		t.Fatalf("light load should not overload: %+v", res)
	}
	if res.CompletedFlows != res.MeasuredFlows {
		t.Fatalf("completed %d of %d", res.CompletedFlows, res.MeasuredFlows)
	}
	if math.IsNaN(res.AvgFCTMs) || res.AvgFCTMs <= 0 {
		t.Fatalf("bad avg FCT %v", res.AvgFCTMs)
	}
	// 50KB flows are short: p99 short defined, long-throughput NaN.
	if math.IsNaN(res.P99ShortFCTMs) {
		t.Fatalf("no short-flow stats")
	}
	if !math.IsNaN(res.AvgLongTputGbps) {
		t.Fatalf("long throughput should be NaN with only 50KB flows")
	}
}

func TestExperimentDetectsOverload(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	topo := &topology.Topology{Name: "pair", G: g, Servers: []int{2, 2}, SwitchPorts: 3}
	pairs := NewTwoRacks(topo, 0, 1, 2)
	// Offered load: 4000/s x 5MB x 8 = 160 Gbps over one 10G link.
	sizes := NewDiscreteCDF("huge", []int64{5_000_000}, []float64{1})
	exp := DefaultExperiment(pairs, sizes, 4000,
		5*sim.Millisecond, 25*sim.Millisecond, 120*sim.Millisecond, 2)
	net := netsim.NewNetwork(topo, netsim.DefaultConfig())
	res := exp.Run(net)
	if !res.Overloaded {
		t.Fatalf("expected overload: %+v", res)
	}
}

func TestExperimentDeterministic(t *testing.T) {
	run := func() Result {
		g := graph.New(3)
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		g.AddEdge(0, 2)
		topo := &topology.Topology{Name: "tri", G: g, Servers: []int{2, 2, 2}, SwitchPorts: 4}
		pairs := NewA2A(topo, []int{0, 1, 2})
		exp := DefaultExperiment(pairs, PFabricWebSearch(), 3000,
			5*sim.Millisecond, 30*sim.Millisecond, 400*sim.Millisecond, 42)
		net := netsim.NewNetwork(topo, netsim.DefaultConfig())
		return exp.Run(net)
	}
	a, b := run(), run()
	if a.AvgFCTMs != b.AvgFCTMs || a.MeasuredFlows != b.MeasuredFlows || a.Events != b.Events {
		t.Fatalf("experiment not deterministic: %+v vs %+v", a, b)
	}
}

func TestPairDistsOnFatTree(t *testing.T) {
	// Fat-trees have serverless core/agg switches; every pair distribution
	// must still map rack IDs to the right global server IDs.
	ft := topology.NewFatTree(4)
	rng := rand.New(rand.NewSource(21))
	serverOf := ft.ServerSwitch()

	edge0 := ft.EdgeBase[0]
	a := NewA2A(&ft.Topology, []int{edge0, edge0 + 1})
	for i := 0; i < 300; i++ {
		s, d := a.Sample(rng)
		if sw := serverOf[s]; sw != edge0 && sw != edge0+1 {
			t.Fatalf("A2A sampled server %d on switch %d outside active racks", s, sw)
		}
		if sw := serverOf[d]; sw != edge0 && sw != edge0+1 {
			t.Fatalf("A2A sampled dst on wrong switch")
		}
	}

	sk := NewSkew(&ft.Topology, 0.25, 0.8, rng)
	for i := 0; i < 300; i++ {
		s, d := sk.Sample(rng)
		if ft.Servers[serverOf[s]] == 0 || ft.Servers[serverOf[d]] == 0 {
			t.Fatalf("Skew sampled a serverless switch")
		}
		if serverOf[s] == serverOf[d] {
			t.Fatalf("Skew produced an intra-rack pair")
		}
	}
}
