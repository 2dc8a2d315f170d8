package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdgeMulti(2, 3, 3)
	if g.M() != 5 {
		t.Fatalf("M = %d, want 5", g.M())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatalf("adjacency wrong")
	}
	if g.adj[2][3] != 3 {
		t.Fatalf("multiplicity = %d, want 3", g.adj[2][3])
	}
	if g.Degree(2) != 4 {
		t.Fatalf("degree(2) = %d, want 4 (1 + 3 trunked)", g.Degree(2))
	}
	if !g.RemoveEdge(2, 3) || g.adj[2][3] != 2 {
		t.Fatalf("RemoveEdge should decrement multiplicity")
	}
	if g.RemoveEdge(0, 3) {
		t.Fatalf("removing absent edge should report false")
	}
	ns := g.Neighbors(1)
	if len(ns) != 2 || ns[0] != 0 || ns[1] != 2 {
		t.Fatalf("neighbors(1) = %v", ns)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("self loop should panic")
		}
	}()
	New(2).AddEdge(1, 1)
}

func TestConnectedAndRegular(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Connected() {
		t.Fatalf("two components reported connected")
	}
	g.AddEdge(1, 2)
	if !g.Connected() {
		t.Fatalf("path graph reported disconnected")
	}
	if _, ok := g.IsRegular(); ok {
		t.Fatalf("path graph is not regular")
	}
	ring := New(5)
	for i := 0; i < 5; i++ {
		ring.AddEdge(i, (i+1)%5)
	}
	if d, ok := ring.IsRegular(); !ok || d != 2 {
		t.Fatalf("ring should be 2-regular, got %d %v", d, ok)
	}
}

func TestBFSAndDiameter(t *testing.T) {
	// Path 0-1-2-3: distances from 0 are 0,1,2,3.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	d := ViewBFS(g.Frozen(), 0)
	for i, want := range []int{0, 1, 2, 3} {
		if d[i] != want {
			t.Fatalf("BFS dist[%d] = %d, want %d", i, d[i], want)
		}
	}
	ps := g.PathStats()
	if ps.Diameter != 3 {
		t.Fatalf("diameter = %d, want 3", ps.Diameter)
	}
	if got := ps.Mean; math.Abs(got-(10.0/6.0)) > 1e-12 {
		t.Fatalf("avg path = %v, want 10/6", got)
	}
}

func TestAPSPMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := New(12)
	for i := 1; i < 12; i++ {
		g.AddEdge(i, rng.Intn(i)) // random tree: connected
	}
	d := apsp(g.Frozen())
	for u := 0; u < 12; u++ {
		bu := ViewBFS(g.Frozen(), u)
		for v := 0; v < 12; v++ {
			if d[u][v] != bu[v] {
				t.Fatalf("APSP[%d][%d] = %d, BFS = %d", u, v, d[u][v], bu[v])
			}
			if d[u][v] != d[v][u] {
				t.Fatalf("asymmetric distances")
			}
		}
	}
}

func TestShortestPathDAGNextHops(t *testing.T) {
	// Square 0-1-2-3-0: toward dst 2, node 0 has two next hops (1 and 3).
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, (i+1)%4)
	}
	next := g.ShortestPathDAGNextHops(2)
	if len(next[0]) != 2 {
		t.Fatalf("node 0 next hops toward 2 = %v, want two", next[0])
	}
	if len(next[1]) != 1 || next[1][0] != 2 {
		t.Fatalf("node 1 next hops = %v, want [2]", next[1])
	}
	if next[2] != nil {
		t.Fatalf("destination should have no next hops")
	}
}

func TestKShortestPathsSquare(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, (i+1)%4)
	}
	paths := g.KShortestPaths(0, 2, 4)
	if len(paths) != 2 {
		t.Fatalf("got %d paths on a square, want 2", len(paths))
	}
	for _, p := range paths {
		if len(p) != 3 || p[0] != 0 || p[2] != 2 {
			t.Fatalf("bad path %v", p)
		}
	}
	if paths[0][1] == paths[1][1] {
		t.Fatalf("duplicate paths returned")
	}
}

func TestKShortestPathsLooplessAndSorted(t *testing.T) {
	g := New(6)
	edges := [][2]int{{0, 1}, {1, 5}, {0, 2}, {2, 3}, {3, 5}, {0, 4}, {4, 5}, {1, 2}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	paths := g.KShortestPaths(0, 5, 10)
	if len(paths) < 3 {
		t.Fatalf("expected >= 3 paths, got %d", len(paths))
	}
	for i, p := range paths {
		seen := map[int]bool{}
		for _, v := range p {
			if seen[v] {
				t.Fatalf("path %v has a loop", p)
			}
			seen[v] = true
		}
		if i > 0 && len(p) < len(paths[i-1]) {
			t.Fatalf("paths not sorted by length")
		}
	}
}

func TestSecondEigenvalueCompleteGraph(t *testing.T) {
	// K_n has eigenvalues n-1 (once) and -1: |λ₂| = 1.
	n := 10
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	rng := rand.New(rand.NewSource(3))
	l2 := g.SecondEigenvalue(300, rng)
	if math.Abs(l2-1) > 0.05 {
		t.Fatalf("K10 lambda2 = %v, want ~1", l2)
	}
	if gap := g.SpectralGap(300, rng); math.Abs(gap-(float64(n-1)-1)) > 0.1 {
		t.Fatalf("spectral gap = %v, want ~%d", gap, n-2)
	}
}

func TestSecondEigenvalueRing(t *testing.T) {
	// Odd ring of n: the largest non-Perron |eigenvalue| is 2cos(π/n) —
	// a poor expander, close to d=2. (An even ring is bipartite and its
	// extreme eigenvalue is exactly −2.)
	n := 21
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	rng := rand.New(rand.NewSource(4))
	want := 2 * math.Cos(math.Pi/float64(n))
	l2 := g.SecondEigenvalue(800, rng)
	if math.Abs(l2-want) > 0.05 {
		t.Fatalf("ring lambda2 = %v, want %v", l2, want)
	}
	// Bipartite even ring: the trivial −2 eigenvalue is deflated, so the
	// estimate is the largest non-trivial |λ| = 2cos(2π/20).
	even := New(20)
	for i := 0; i < 20; i++ {
		even.AddEdge(i, (i+1)%20)
	}
	wantEven := 2 * math.Cos(2*math.Pi/20)
	if l2 := even.SecondEigenvalue(800, rng); math.Abs(l2-wantEven) > 0.05 {
		t.Fatalf("even ring lambda2 = %v, want %v (bipartite deflation)", l2, wantEven)
	}
}

// hypercube returns Q_d: nodes 0..2^d−1, u adjacent to u with one bit flipped.
func hypercube(d int) *Graph {
	g := New(1 << d)
	for u := 0; u < 1<<d; u++ {
		for b := 0; b < d; b++ {
			if v := u ^ 1<<b; u < v {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestSecondEigenvalueHypercube(t *testing.T) {
	// Q_d's eigenvalues are d − 2i; it is bipartite, so ±d are both deflated
	// and |λ₂| = d − 2.
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{4, 6} {
		g := hypercube(d)
		if _, ok := g.Bipartition(); !ok {
			t.Fatalf("Q_%d is bipartite", d)
		}
		if l2 := g.SecondEigenvalue(300, rng); math.Abs(l2-float64(d-2)) > 0.05 {
			t.Fatalf("Q_%d lambda2 = %v, want %d", d, l2, d-2)
		}
	}
}

func TestBipartition(t *testing.T) {
	even := New(6)
	for i := 0; i < 6; i++ {
		even.AddEdge(i, (i+1)%6)
	}
	sides, ok := even.Bipartition()
	if !ok {
		t.Fatalf("even ring is bipartite")
	}
	for i := 0; i < 6; i++ {
		if sides[i]*sides[(i+1)%6] != -1 {
			t.Fatalf("adjacent nodes on the same side")
		}
	}
	odd := New(5)
	for i := 0; i < 5; i++ {
		odd.AddEdge(i, (i+1)%5)
	}
	if _, ok := odd.Bipartition(); ok {
		t.Fatalf("odd ring is not bipartite")
	}
}

func TestMaxWeightMatchingSimple(t *testing.T) {
	// Weights favor pairing (0,3) and (1,2): w(0,3)=10, w(1,2)=10, others 1.
	nodes := []int{0, 1, 2, 3}
	w := func(a, b int) float64 {
		if (a == 0 && b == 3) || (a == 3 && b == 0) || (a == 1 && b == 2) || (a == 2 && b == 1) {
			return 10
		}
		return 1
	}
	pairs := MaxWeightMatching(nodes, w)
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs, want 2", len(pairs))
	}
	total := 0.0
	for _, p := range pairs {
		total += w(p[0], p[1])
	}
	if total != 20 {
		t.Fatalf("matching weight = %v, want 20", total)
	}
}

func TestMaxWeightMatchingGreedyTrap(t *testing.T) {
	// Greedy would take (0,1) w=10 leaving (2,3) w=1 (total 11); optimal is
	// (0,2)+(1,3) = 9+9 = 18. 2-opt must escape.
	w := map[[2]int]float64{
		{0, 1}: 10, {2, 3}: 1,
		{0, 2}: 9, {1, 3}: 9,
		{0, 3}: 1, {1, 2}: 1,
	}
	wf := func(a, b int) float64 {
		if a > b {
			a, b = b, a
		}
		return w[[2]int{a, b}]
	}
	pairs := MaxWeightMatching([]int{0, 1, 2, 3}, wf)
	total := 0.0
	for _, p := range pairs {
		total += wf(p[0], p[1])
	}
	if total < 18 {
		t.Fatalf("2-opt failed to escape greedy trap: weight %v, want 18", total)
	}
}

func TestMaxWeightMatchingOddLeavesOneUnmatched(t *testing.T) {
	pairs := MaxWeightMatching([]int{1, 2, 3, 4, 5}, func(a, b int) float64 { return 1 })
	if len(pairs) != 2 {
		t.Fatalf("odd set of 5: got %d pairs, want 2", len(pairs))
	}
}

func TestMooreBoundToyExample(t *testing.T) {
	// The §4.1 numbers: 9 nodes, degree 6 -> 1.25 average hops.
	if got := MooreAvgPathLowerBound(9, 6); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("Moore bound = %v, want 1.25", got)
	}
	if got := MooreThroughputUpperBound(9, 6, 6); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("throughput bound = %v, want 0.8", got)
	}
}

func TestMooreBoundEdgeCases(t *testing.T) {
	if MooreAvgPathLowerBound(1, 5) != 0 {
		t.Fatalf("single node bound should be 0")
	}
	if got := MooreAvgPathLowerBound(5, 4); got != 1 {
		t.Fatalf("complete-graph-capable degree: bound = %v, want 1", got)
	}
	if MooreThroughputUpperBound(100, 0, 5) != 0 {
		t.Fatalf("degree 0 should bound throughput at 0")
	}
	if MooreThroughputUpperBound(10, 64, 1) != 1 {
		t.Fatalf("huge degree should cap at 1")
	}
}

func TestMooreBoundIsActuallyALowerBound(t *testing.T) {
	// Property: every actual regular graph's average shortest path is >= the
	// Moore bound for its (n, d).
	rng := rand.New(rand.NewSource(5))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6 + int(r.Int31n(10))
		if n%2 == 1 {
			n++
		}
		d := 3
		g := randomRegularForTest(n, d, r)
		if g == nil || !g.Connected() {
			return true // skip rare failures
		}
		return g.PathStats().Mean >= MooreAvgPathLowerBound(n, d)-1e-9
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// randomRegularForTest builds a d-regular graph by the pairing model with
// rejection (test helper; topology.NewJellyfish is the production path).
func randomRegularForTest(n, d int, rng *rand.Rand) *Graph {
	for attempt := 0; attempt < 50; attempt++ {
		stubs := make([]int, 0, n*d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				stubs = append(stubs, i)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		g := New(n)
		ok := true
		for i := 0; i+1 < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v || g.HasEdge(u, v) {
				ok = false
				break
			}
			g.AddEdge(u, v)
		}
		if ok {
			return g
		}
	}
	return nil
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := New(5)
	g.AddEdge(3, 1)
	g.AddEdge(0, 4)
	g.AddEdge(2, 0)
	es := g.Edges()
	for i := 1; i < len(es); i++ {
		if es[i].U < es[i-1].U {
			t.Fatalf("edges not ordered: %v", es)
		}
	}
	if es[0].U != 0 || es[0].V != 2 {
		t.Fatalf("first edge = %v, want (0,2)", es[0])
	}
}

// CopyFrom must leave a deep, independent copy whatever the destination held
// before — nothing, a smaller graph, a larger one, a frozen view — and, into
// rows that already fit, allocate nothing.
func TestCopyFromReusesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small, big := randomMultigraph(12, 0.4, rng), randomMultigraph(40, 0.3, rng)
	dst := new(Graph)
	for _, src := range []*Graph{big, small, big, big} {
		dst.Frozen() // a stale view must not survive the copy
		dst.CopyFrom(src)
		if dst.N() != src.N() || dst.M() != src.M() || !reflect.DeepEqual(dst.Edges(), src.Edges()) {
			t.Fatalf("copy of %v is %v with different edges", src, dst)
		}
	}
	e := big.Edges()[0]
	for dst.RemoveEdge(e.U, e.V) {
	}
	if !big.HasEdge(e.U, e.V) || reflect.DeepEqual(dst.Edges(), big.Edges()) {
		t.Fatal("rewiring the copy reached the original")
	}
	if got := testing.AllocsPerRun(10, func() { dst.CopyFrom(big) }); got != 0 {
		t.Fatalf("CopyFrom into rows of the same graph: %.0f allocations, want 0", got)
	}
}

// The scratch forms of BFSManyInto and MaxWeightMatching must return what a
// fresh buffer and the plain form do whatever their buffers were last used
// for.
func TestScratchKernelsMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var bfs BFSBuffer
	var match MatchingScratch
	for _, n := range []int{30, 9, 44, 44, 2} {
		c := randomMultigraph(n, 0.25, rng).Frozen()
		sources := rng.Perm(n)[:1+n/2]
		rows := c.BFSManyInto(&bfs, sources)
		if want := bfsRows(c, sources...); !reflect.DeepEqual(rows, want) {
			t.Fatalf("n=%d: BFSManyInto on a used buffer differs from a fresh one", n)
		}
		w := func(a, b int) float64 { return float64(rows[0][a] + rows[0][b]) }
		got, want := match.MaxWeightMatching(sources, w), MaxWeightMatching(sources, w)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("n=%d: scratch matching %v, plain %v", n, got, want)
		}
	}
}
