package eval

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"beyondft/internal/harness"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
)

func TestNormalizeRungs(t *testing.T) {
	var coarse, fine float64
	if err := NormalizeRungs(&coarse, &fine); err != nil {
		t.Fatal(err)
	}
	if coarse != DefaultCoarseEps || fine != DefaultFineEps {
		t.Fatalf("defaults: %g -> %g", coarse, fine)
	}
	equal := [2]float64{0.1, 0.1}
	if err := NormalizeRungs(&equal[0], &equal[1]); err != nil {
		t.Fatalf("equal rungs are a valid one-rung ladder: %v", err)
	}
	for _, bad := range [][2]float64{{0.05, 0.1}, {0, 0.001}, {0.6, 0.1}, {0, 0.3}} {
		if err := NormalizeRungs(&bad[0], &bad[1]); err == nil {
			t.Errorf("rungs %v accepted", bad)
		}
	}
	if err := CheckEps("epsilon", 0.7); err == nil || !strings.Contains(err.Error(), "epsilon=0.7: need [0.005,0.5]") {
		t.Fatalf("CheckEps message: %v", err)
	}
}

func TestTopoSpecNormalize(t *testing.T) {
	// Ignored fields are zeroed and defaults filled, so equivalent specs are
	// one cache entry.
	a := TopoSpec{Kind: "jellyfish", K: 9, Lift: 3, Q: 5, Dim: 2, Name: "x", DesignHash: "y"}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if want := (TopoSpec{Kind: "jellyfish", N: 54, Degree: 9, Servers: 6, Seed: 1}); a != want {
		t.Fatalf("normalized %+v, want %+v", a, want)
	}
	ft := TopoSpec{Kind: "fattree", Servers: 7, Seed: 3}
	if err := ft.Normalize(); err != nil {
		t.Fatal(err)
	}
	if want := (TopoSpec{Kind: "fattree", K: 8}); ft != want {
		t.Fatalf("normalized %+v, want %+v", ft, want)
	}
	for _, bad := range []TopoSpec{
		{Kind: "moebius"},
		{Kind: "fattree", K: 3},
		{Kind: "jellyfish", N: 5, Degree: 3}, // odd n·degree
		{Kind: "jellyfish", N: MaxSwitches + 1},
		{Kind: "xpander", Degree: 1},
		{Kind: "slimfly", Q: 7}, // 7 ≢ 1 (mod 4)
		{Kind: "slimfly", Q: 9}, // not prime
		{Kind: "longhop", Dim: 4, Degree: 3},
		{Kind: "jellyfish", Servers: 300},
		{Kind: "design"},
		{Kind: "design", Name: "never-registered"},
	} {
		spec := bad
		if err := spec.Normalize(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

func TestTopoSpecBuildEveryKind(t *testing.T) {
	d := topology.DesignOf(topology.NewJellyfish(10, 3, 2, rand.New(rand.NewSource(4))))
	d.Name = "eval-test-design"
	if err := topology.RegisterDesign(d); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []TopoSpec{
		{Kind: "fattree", K: 4},
		{Kind: "jellyfish", N: 10, Degree: 3, Servers: 2},
		{Kind: "xpander", Degree: 3, Lift: 3, Servers: 2},
		{Kind: "slimfly", Servers: 2},
		{Kind: "longhop", Dim: 3, Degree: 4, Servers: 2},
		{Kind: "design", Name: d.Name},
	} {
		if err := spec.Normalize(); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		topo, err := spec.Build(rand.New(rand.NewSource(spec.Seed)))
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		for _, fam := range []string{"longest-matching", "permutation", "all-to-all"} {
			m, racks, err := spec.TM(topo, fam, 0.7, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Kind, fam, err)
			}
			if len(racks) < 2 || len(m.Demands) == 0 {
				t.Fatalf("%s/%s: %d racks, %d demands", spec.Kind, fam, len(racks), len(m.Demands))
			}
		}
		if _, _, err := spec.TM(topo, "gravity", 1, rand.New(rand.NewSource(1))); err == nil {
			t.Fatalf("%s: unknown tm family accepted", spec.Kind)
		}
	}
	if _, err := (&TopoSpec{Kind: "moebius"}).Build(nil); err == nil {
		t.Fatal("unknown kind built")
	}
	if _, err := (&TopoSpec{Kind: "design", Name: "never-registered"}).Build(nil); err == nil {
		t.Fatal("unregistered design built")
	}
}

func TestNormalizeTM(t *testing.T) {
	var fam string
	var x float64
	var seed int64
	if err := NormalizeTM(&fam, &x, &seed); err != nil {
		t.Fatal(err)
	}
	if fam != "longest-matching" || x != 1 || seed != 1 {
		t.Fatalf("defaults: %q %g %d", fam, x, seed)
	}
	bad, over := "gravity", 1.5
	if err := NormalizeTM(&bad, &x, &seed); err == nil {
		t.Fatal("unknown family accepted")
	}
	if err := NormalizeTM(&fam, &over, &seed); err == nil {
		t.Fatal("x > 1 accepted")
	}
}

// testProblem is the cold worst-case instance of a small Jellyfish.
func testProblem() Problem {
	topo := topology.NewJellyfish(12, 3, 2, rand.New(rand.NewSource(3)))
	m := tm.LongestMatching(topo.G, topo.ToRs(), func(r int) int { return topo.Servers[r] })
	return ProblemOf(topo.G, m)
}

// TestFineIndependentOfCoarseSource is the refine rule: the fine rung of an
// instance is the same bits whether its coarse rung was just solved (duals
// in hand) or read back from a cache (no duals: the coarse solve is re-run),
// and the re-run is charged.
func TestFineIndependentOfCoarseSource(t *testing.T) {
	p := testProblem()
	l := Ladder{CoarseEps: 0.3, FineEps: 0.1}
	if !l.TwoRungs() || (Ladder{CoarseEps: 0.1, FineEps: 0.1}).TwoRungs() {
		t.Fatal("TwoRungs")
	}
	coarse, err := l.Coarse(p)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Duals == nil || coarse.Iterations == 0 || coarse.Epsilon != 0.3 {
		t.Fatalf("coarse rung: %+v", coarse)
	}
	fresh, err := l.Fine(p, coarse)
	if err != nil {
		t.Fatal(err)
	}
	// Through the cache encoding: duals and iterations do not survive.
	raw, err := json.Marshal(&coarse)
	if err != nil {
		t.Fatal(err)
	}
	var cached Rung
	if err := json.Unmarshal(raw, &cached); err != nil {
		t.Fatal(err)
	}
	if cached.Duals != nil || cached.Iterations != 0 || cached.Throughput != coarse.Throughput {
		t.Fatalf("cached form: %+v", cached)
	}
	resumed, err := l.Fine(p, cached)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(resumed.Throughput) != math.Float64bits(fresh.Throughput) ||
		math.Float64bits(resumed.UpperBound) != math.Float64bits(fresh.UpperBound) || resumed.Phases != fresh.Phases {
		t.Fatalf("fine rung depends on where the coarse rung came from:\n%+v\nvs\n%+v", resumed, fresh)
	}
	if resumed.Iterations != fresh.Iterations+coarse.Iterations {
		t.Fatalf("re-run coarse solve not charged: %d vs %d + %d", resumed.Iterations, fresh.Iterations, coarse.Iterations)
	}
	if fresh.Throughput < (1-0.1)*fresh.UpperBound*(1-1e-9) {
		t.Fatalf("fine rung misses its certificate: %+v", fresh)
	}
	for _, r := range []Rung{coarse, fresh, resumed} {
		checkPathLengthBound(t, "testProblem", p, r)
	}
}

// checkPathLengthBound holds a rung to the path-length law: carrying
// Throughput × dem_c for every commodity c uses at least that much capacity
// on each of the dist_c arcs of c's shortest path, so Throughput ≤
// Σ_arcs cap / Σ_c dem_c·dist_c, with dist_c the hop distance by BFS over the
// problem's arcs.
func checkPathLengthBound(t *testing.T, name string, p Problem, r Rung) {
	t.Helper()
	capacity := 0.0
	for _, a := range p.NW.Arcs {
		capacity += a.Cap
	}
	dist := make([]int, p.NW.N)
	queue := make([]int, 0, p.NW.N)
	load := 0.0
	for _, c := range p.Comms {
		for v := range dist {
			dist[v] = -1
		}
		dist[c.Src] = 0
		queue = append(queue[:0], c.Src)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, k := range p.NW.Out[u] {
				if v := p.NW.Arcs[k].To; dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		if dist[c.Dst] < 0 {
			t.Fatalf("%s: commodity %d->%d has no path", name, c.Src, c.Dst)
		}
		load += c.Demand * float64(dist[c.Dst])
	}
	if bound := capacity / load; r.Throughput > bound*(1+1e-9) {
		t.Errorf("%s at eps %g: throughput %v above the path-length bound %v", name, r.Epsilon, r.Throughput, bound)
	}
}

// pollLimitCtx reports cancellation from its n-th Err poll on.
type pollLimitCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollLimitCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestSolveCanceledReturnsNoRung(t *testing.T) {
	ctx := &pollLimitCtx{Context: context.Background()}
	ctx.left.Store(3)
	r, err := Solve(ctx, testProblem(), 0.05, 2, true)
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if r.Throughput != 0 || r.Duals != nil {
		t.Fatalf("a canceled solve leaked a partial rung: %+v", r)
	}
	if _, err := (Ladder{CoarseEps: 0.3, FineEps: 0.1, Ctx: ctx}).Fine(testProblem(), Rung{}); err != context.Canceled {
		t.Fatalf("Fine over a canceled ctx: %v", err)
	}
}

func TestStore(t *testing.T) {
	var none *Store
	var r Rung
	if none.Slot("job", "eps=0.1", "x").Get(&r) || (&Store{}).Slot("job", "eps=0.1", "x").Get(&r) {
		t.Fatal("a store without a cache hit")
	}
	none.Slot("job", "eps=0.1", "x").Put(&r) // must not panic

	c, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := &Store{Cache: c, BaseSpec: "base"}
	l := Ladder{CoarseEps: 0.25, FineEps: 0.08}
	want := Rung{Throughput: 0.5, UpperBound: 0.6, Phases: 7, Epsilon: 0.08, Duals: []float64{1}, Iterations: 9, Fallbacks: 2}
	s.Slot("job", l.FineKey(), "design=abc").Put(&want)
	var got Rung
	if !s.Slot("job", l.FineKey(), "design=abc").Get(&got) {
		t.Fatal("stored rung not found")
	}
	if got.Throughput != 0.5 || got.Phases != 7 || got.Duals != nil || got.Iterations != 0 || got.Fallbacks != 0 {
		t.Fatalf("round trip: %+v", got)
	}
	// Another job, rung, content, base or ladder is another address.
	other := Ladder{CoarseEps: 0.3, FineEps: 0.08}
	if l.FineKey() == other.FineKey() || l.FineKey() == (Ladder{CoarseEps: 0.08, FineEps: 0.08}).CoarseKey() {
		t.Fatal("fine keys of different ladders collide")
	}
	for _, miss := range [][3]string{
		{"other", l.FineKey(), "design=abc"},
		{"job", l.CoarseKey(), "design=abc"},
		{"job", other.FineKey(), "design=abc"},
		{"job", l.FineKey(), "design=abd"},
	} {
		if s.Slot(miss[0], miss[1], miss[2]).Get(&got) {
			t.Errorf("%v aliased the stored entry", miss)
		}
	}
	if (&Store{Cache: c, BaseSpec: "other-base"}).Slot("job", l.FineKey(), "design=abc").Get(&got) {
		t.Error("another base spec aliased the stored entry")
	}
	// The envelope lets a peer rederive the address.
	keys, err := c.Keys()
	if err != nil || len(keys) != 1 {
		t.Fatalf("keys: %v %v", keys, err)
	}
	e, ok, err := c.Load(keys[0])
	if err != nil || !ok {
		t.Fatal(err)
	}
	if harness.Key(e.Job, e.Spec, e.Salt) != keys[0] || e.Salt != Version {
		t.Fatalf("envelope does not rederive its key: %+v", e)
	}
}

// A Workspace changes where an evaluation's memory comes from and nothing
// else: matrix, network, commodities and both rungs must equal the fresh
// path's bit for bit, whatever sizes the workspace saw before — and a repeat
// on a warm workspace must allocate next to nothing (12; the fresh path takes about 130).
func TestWorkspaceMatchesFreshEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	designs := []*topology.Topology{
		topology.NewJellyfish(24, 5, 4, rng),
		topology.NewJellyfish(54, 9, 6, rng),
		&topology.NewXpander(5, 5, 3, rng).Topology,
		topology.NewJellyfish(16, 4, 2, rng),
		topology.NewJellyfish(54, 9, 6, rng),
	}
	l := Ladder{CoarseEps: DefaultCoarseEps, FineEps: DefaultFineEps}
	var ws Workspace
	evaluate := func(d *topology.Topology, ws *Workspace) (*tm.TM, Problem, Rung, Rung) {
		serversOf := func(rack int) int { return d.Servers[rack] }
		var m *tm.TM
		var p Problem
		if ws != nil {
			m = ws.LongestMatching(d.G, d.ToRs(), serversOf)
			p = ws.ProblemOf(d.G, m)
		} else {
			m = tm.LongestMatching(d.G, d.ToRs(), serversOf)
			p = ProblemOf(d.G, m)
		}
		coarse, err := l.Coarse(p)
		if err != nil {
			t.Fatal(err)
		}
		fine, err := l.Fine(p, coarse)
		if err != nil {
			t.Fatal(err)
		}
		return m, p, coarse, fine
	}
	for _, d := range designs {
		m, p, coarse, fine := evaluate(d, &ws)
		wm, wp, wcoarse, wfine := evaluate(d, nil)
		if !reflect.DeepEqual(m, wm) {
			t.Fatalf("%s: traffic matrix differs", d.Name)
		}
		if !reflect.DeepEqual(p.NW.Arcs, wp.NW.Arcs) || !reflect.DeepEqual(p.NW.Out, wp.NW.Out) || !reflect.DeepEqual(p.Comms, wp.Comms) {
			t.Fatalf("%s: problem differs", d.Name)
		}
		if !reflect.DeepEqual(coarse, wcoarse) || !reflect.DeepEqual(fine, wfine) {
			t.Fatalf("%s: rungs differ: coarse %+v vs %+v, fine %+v vs %+v", d.Name, coarse.Throughput, wcoarse.Throughput, fine.Throughput, wfine.Throughput)
		}
		checkPathLengthBound(t, d.Name, wp, wcoarse)
		checkPathLengthBound(t, d.Name, wp, wfine)
	}
	last := designs[len(designs)-1]
	const limit = 16
	if got := testing.AllocsPerRun(3, func() { evaluate(last, &ws) }); got > limit {
		t.Fatalf("evaluation on a warm workspace: %.0f allocations, want <= %d", got, limit)
	}
}
