package whatif

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"beyondft/internal/fluid"
	"beyondft/internal/graph"
	"beyondft/internal/harness"
	"beyondft/internal/obs"
	"beyondft/internal/stats"
)

// testFabric is a connected degree-4 ring-with-chords switch graph — small
// enough for fast tests, big enough that single phases route many
// Dijkstras and single-link families have dozens of members.
func testFabric(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
		g.AddEdge(v, (v+5)%n)
	}
	return g
}

// testComms pairs each switch with its antipode at unit demand.
func testComms(n int) []fluid.Commodity {
	var cs []fluid.Commodity
	for i := 0; i < n; i++ {
		cs = append(cs, fluid.Commodity{Src: i, Dst: (i + n/2) % n, Demand: 1})
	}
	return cs
}

func TestFamilySpecNormalize(t *testing.T) {
	bad := []FamilySpec{
		{Kind: "nope"},
		{Kind: "k-link-sample", K: 100},
		{Kind: "k-link-sample", Samples: 9999},
		{Kind: "rack-add", Racks: 100},
		{Kind: "rack-add", Degree: 1000},
	}
	for i, f := range bad {
		if err := f.Normalize(); err == nil {
			t.Errorf("case %d: %+v accepted", i, f)
		}
	}
	f := FamilySpec{Kind: "single-link", K: 7, Seed: 3}
	if err := f.Normalize(); err != nil {
		t.Fatal(err)
	}
	if f.K != 0 || f.Seed != 0 {
		t.Fatalf("ignored fields not zeroed: %+v", f)
	}
	kl := FamilySpec{Kind: "k-link-sample"}
	if err := kl.Normalize(); err != nil {
		t.Fatal(err)
	}
	if kl.K != 3 || kl.Samples != 32 || kl.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", kl)
	}
}

func TestScenarioFamilies(t *testing.T) {
	g := testFabric(12)
	edges := len(g.Edges())

	single, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != edges {
		t.Fatalf("single-link: %d scenarios for %d edges", len(single), edges)
	}
	sw, err := Scenarios(g, FamilySpec{Kind: "single-switch"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw) != g.N() {
		t.Fatalf("single-switch: %d scenarios for %d switches", len(sw), g.N())
	}
	kl, err := Scenarios(g, FamilySpec{Kind: "k-link-sample", K: 2, Samples: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(kl) != 5 {
		t.Fatalf("k-link-sample: %d scenarios", len(kl))
	}
	for _, s := range kl {
		if len(s.Delta.DelEdges) != 2 {
			t.Fatalf("scenario %s deletes %d edges, want 2", s.ID, len(s.Delta.DelEdges))
		}
	}
	ra, err := Scenarios(g, FamilySpec{Kind: "rack-add", Racks: 2, Degree: 3, Samples: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != 4 {
		t.Fatalf("rack-add: %d scenarios", len(ra))
	}
	for _, s := range ra {
		if s.Delta.AddNodes != 2 || len(s.Delta.AddEdges) != 6 {
			t.Fatalf("scenario %s: %+v", s.ID, s.Delta)
		}
		// Every delta must be applicable.
		if _, err := graph.NewOverlay(g.Frozen(), s.Delta); err != nil {
			t.Fatalf("scenario %s: %v", s.ID, err)
		}
	}
	// Sampled families are a pure function of (seed, index).
	kl2, _ := Scenarios(g, FamilySpec{Kind: "k-link-sample", K: 2, Samples: 5, Seed: 7})
	a, _ := json.Marshal(kl)
	b, _ := json.Marshal(kl2)
	if string(a) != string(b) {
		t.Fatal("sampled family not deterministic")
	}
}

func TestLadderNormalize(t *testing.T) {
	var l Ladder
	if err := l.Normalize(); err != nil {
		t.Fatal(err)
	}
	if l.CoarseEps != 0.25 || l.FineEps != 0.08 || l.TopK != 8 {
		t.Fatalf("defaults: %+v", l)
	}
	for i, bad := range []Ladder{
		{CoarseEps: 0.05, FineEps: 0.1},
		{FineEps: 0.001},
		{TopK: -1},
	} {
		if err := bad.Normalize(); err == nil {
			t.Errorf("case %d: %+v accepted", i, bad)
		}
	}
}

// TestWhatifSweepCostAndAgreement is the acceptance-criteria test: the full
// single-link sweep (warm starts + ε ladder + delta views) must cost less
// than 25% of solving every scenario cold at fine ε, measured in routing
// Dijkstras (deterministic, unlike wall clock), and every result must agree
// with its scenario's cold fine solve within the ε tolerances involved.
func TestWhatifSweepCostAndAgreement(t *testing.T) {
	const n = 24
	g := testFabric(n)
	comms := testComms(n)
	scens, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		t.Fatal(err)
	}
	var ladder Ladder
	if err := ladder.Normalize(); err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(g, comms, scens, Options{Ladder: ladder})
	if err != nil {
		t.Fatal(err)
	}

	// Cold baseline: every scenario from scratch at fine ε.
	base := g.Frozen()
	var coldIters int64
	coldThr := make(map[string]float64, len(scens))
	for _, s := range scens {
		ov, err := graph.NewOverlay(base, s.Delta)
		if err != nil {
			t.Fatal(err)
		}
		nw := fluid.NewNetworkFromView(ov, 1.0)
		var tel fluid.GKTelemetry
		res := fluid.MaxConcurrentFlow(nw, comms, fluid.GKOptions{
			Epsilon: ladder.FineEps, Workers: 1, Observer: &tel,
		})
		coldIters += int64(tel.Iterations)
		coldThr[s.ID] = res.Throughput
	}

	ratio := float64(rep.Iterations) / float64(coldIters)
	t.Logf("sweep cost: %d iterations vs %d cold (ratio %.3f), evaluated=%d promoted=%d warm=%d",
		rep.Iterations, coldIters, ratio, rep.Evaluated, rep.Promoted, rep.WarmHits)
	if ratio >= 0.25 {
		t.Fatalf("sweep cost ratio %.3f, acceptance requires < 0.25", ratio)
	}

	// Agreement: promoted results were solved at fine ε (tolerance 2·fine);
	// unpromoted ones at coarse ε (tolerance coarse+fine).
	for _, r := range rep.Results {
		if r.Disconnected {
			t.Fatalf("single-link on a 4-regular fabric disconnected %s", r.ID)
		}
		cold := coldThr[r.ID]
		tol := ladder.CoarseEps + ladder.FineEps
		if r.Promoted {
			tol = 2 * ladder.FineEps
		}
		if rel := math.Abs(r.Throughput-cold) / cold; rel > tol {
			t.Fatalf("%s (promoted=%v): warm %.6f vs cold %.6f, rel %.4f > tol %.3f",
				r.ID, r.Promoted, r.Throughput, cold, rel, tol)
		}
	}
	if rep.Promoted == 0 || len(rep.WorstIDs) != rep.Promoted {
		t.Fatalf("ladder promoted nothing: %+v", rep)
	}
	if rep.Hist.Total() != int64(len(scens)) {
		t.Fatalf("histogram binned %d of %d scenarios", rep.Hist.Total(), len(scens))
	}
}

// TestWhatifDeterministicAcrossWorkers: bit-identical reports at any
// worker count — the smoke-test contract.
func TestWhatifDeterministicAcrossWorkers(t *testing.T) {
	g := testFabric(16)
	comms := testComms(16)
	scens, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i, workers := range []int{1, 2, 8} {
		rep, err := Evaluate(g, comms, scens, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("report differs at %d workers:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestWhatifCacheResume: a second sweep over a populated cache recomputes
// nothing and reproduces the report exactly — resumable sweeps.
func TestWhatifCacheResume(t *testing.T) {
	g := testFabric(12)
	comms := testComms(12)
	scens, err := Scenarios(g, FamilySpec{Kind: "k-link-sample", K: 2, Samples: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := &ScenarioCache{Cache: c, BaseSpec: "test-fabric-12"}
	rep1, err := Evaluate(g, comms, scens, Options{Cache: sc})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CacheHits != 0 || rep1.Evaluated == 0 {
		t.Fatalf("first sweep: %+v", rep1)
	}
	rep2, err := Evaluate(g, comms, scens, Options{Cache: sc})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Evaluated != 0 {
		t.Fatalf("second sweep recomputed %d scenarios", rep2.Evaluated)
	}
	if rep2.CacheHits != len(scens)+rep1.Promoted {
		t.Fatalf("second sweep: %d cache hits, want %d", rep2.CacheHits, len(scens)+rep1.Promoted)
	}
	// The scenario content (base, per-scenario results, histogram, frontier)
	// must be identical; the bookkeeping counters naturally differ.
	content := func(r *Report) string { return reportContent(t, r) }
	if content(rep1) != content(rep2) {
		t.Fatalf("cached report content differs:\n%s\nvs\n%s", content(rep2), content(rep1))
	}
	// "No ladder" is equal rungs: everything solved once at that ε, nothing
	// promoted. Its results are warm-started from the base duals, not from
	// own coarse duals like the ladder's fine entries at the same ε — a
	// different computation, so it must not alias them.
	flat := Ladder{CoarseEps: 0.08, FineEps: 0.08}
	rep3, err := Evaluate(g, comms, scens, Options{Cache: sc, Ladder: flat})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.CacheHits != 0 || rep3.Promoted != 0 || len(rep3.WorstIDs) != 0 {
		t.Fatalf("one-rung sweep: %d cache hits (want 0: the ladder's fine entries are another computation), promoted %d",
			rep3.CacheHits, rep3.Promoted)
	}
	cold3, err := Evaluate(g, comms, scens, Options{Ladder: flat})
	if err != nil {
		t.Fatal(err)
	}
	if content(rep3) != content(cold3) {
		t.Fatalf("one-rung sweep over a ladder-populated cache differs from a cold one:\n%s\nvs\n%s", content(rep3), content(cold3))
	}
	rep4, err := Evaluate(g, comms, scens, Options{Cache: sc, Ladder: flat})
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Evaluated != 0 || rep4.CacheHits != len(scens) {
		t.Fatalf("one-rung resume: evaluated %d, cache hits %d, want 0 and %d", rep4.Evaluated, rep4.CacheHits, len(scens))
	}
}

// reportContent is everything of a report that is a function of the inputs
// alone: the bookkeeping counters (cache hits, evaluated) naturally vary
// with cache state and are left out.
func reportContent(t *testing.T, r *Report) string {
	t.Helper()
	data, err := json.Marshal(struct {
		Base    Result
		Results []Result
		Hist    stats.Hist
		Worst   []string
	}{r.Base, r.Results, r.Hist, r.WorstIDs})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestWhatifCacheHistoryIndependent is the regression test for the refine
// rule: a sweep that promotes scenarios whose coarse rung is served from the
// cache (here: a TopK=8 sweep after a TopK=2 sweep populated it) must
// re-run their coarse solves to get the duals the fine solve starts from.
// Falling back to mapped base duals — what the engine used to do — makes
// the fine results, and the bytes persisted under their content addresses,
// depend on which sweeps ran before.
func TestWhatifCacheHistoryIndependent(t *testing.T) {
	g := testFabric(16)
	comms := testComms(16)
	scens, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := &ScenarioCache{Cache: c, BaseSpec: "test-fabric-16"}
	if _, err := Evaluate(g, comms, scens, Options{Cache: sc, Ladder: Ladder{TopK: 2}}); err != nil {
		t.Fatal(err)
	}
	warm, err := Evaluate(g, comms, scens, Options{Cache: sc, Ladder: Ladder{TopK: 8}})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Evaluate(g, comms, scens, Options{Ladder: Ladder{TopK: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != len(scens)+2 || warm.Promoted != 6 {
		t.Fatalf("second sweep: %d cache hits, %d promoted; want %d and 6", warm.CacheHits, warm.Promoted, len(scens)+2)
	}
	if reportContent(t, warm) != reportContent(t, cold) {
		t.Fatalf("TopK=8 sweep over a TopK=2 cache differs from a cold TopK=8 sweep:\n%s\nvs\n%s",
			reportContent(t, warm), reportContent(t, cold))
	}
	// The six re-run coarse solves are real work and are accounted as such.
	again, err := Evaluate(g, comms, scens, Options{Cache: sc, Ladder: Ladder{TopK: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if again.Evaluated != 0 || again.Iterations >= warm.Iterations {
		t.Fatalf("third sweep: evaluated %d, %d iterations vs %d for the sweep that promoted", again.Evaluated, again.Iterations, warm.Iterations)
	}
	if reportContent(t, again) != reportContent(t, cold) {
		t.Fatal("fully cached sweep differs from the cold one")
	}
}

// pollLimitCtx is a context that reports cancellation from its n-th Err
// poll on: the solver polls every few dozen routing iterations, so this
// cuts a sweep at the same point of the same solve on every run.
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

// TestWhatifCanceledSolveNotCached: a solve cut short by cancellation
// returns a feasible but far-from-optimal flow; storing it under the
// scenario's content address would poison every later sweep of the base.
func TestWhatifCanceledSolveNotCached(t *testing.T) {
	g := testFabric(16)
	comms := testComms(16)
	scens, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Evaluate(g, comms, scens, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := &ScenarioCache{Cache: c, BaseSpec: "test-fabric-16"}
	for _, polls := range []int64{40, 90, 200} {
		ctx := &pollLimitCtx{Context: context.Background()}
		ctx.left.Store(polls)
		if _, err := Evaluate(g, comms, scens, Options{Workers: 1, Cache: sc, Ctx: ctx}); err != context.Canceled {
			t.Fatalf("sweep cut after %d polls returned %v", polls, err)
		}
	}
	resumed, err := Evaluate(g, comms, scens, Options{Workers: 1, Cache: sc})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.CacheHits == 0 {
		t.Fatal("the cut sweeps left nothing to resume from")
	}
	if reportContent(t, resumed) != reportContent(t, cold) {
		t.Fatalf("sweep resumed over canceled runs differs from a cold one:\n%s\nvs\n%s",
			reportContent(t, resumed), reportContent(t, cold))
	}
}

// TestWhatifDisconnectedScenarios: masking a switch that hosts a demand is
// an explicit Disconnected result, not a zero-throughput solve.
func TestWhatifDisconnectedScenarios(t *testing.T) {
	g := graph.New(3) // path 0-1-2; commodity 0→2 transits 1
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	comms := []fluid.Commodity{{Src: 0, Dst: 2, Demand: 1}}
	scens, err := Scenarios(g, FamilySpec{Kind: "single-switch"})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rep, err := Evaluate(g, comms, scens, Options{Metrics: NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if !r.Disconnected || r.Throughput != 0 {
			t.Fatalf("masking any switch of a path cuts 0→2, got %+v", r)
		}
	}
	if got := NewMetrics(reg).Disconnected.Load(); got != int64(len(scens)) {
		t.Fatalf("disconnected counter %d, want %d", got, len(scens))
	}
}

// TestWhatifStreamingAndMetrics: OnResult fires once per scenario plus
// once per promotion, and the counters add up.
func TestWhatifStreamingAndMetrics(t *testing.T) {
	g := testFabric(12)
	comms := testComms(12)
	scens, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	var streamed int
	rep, err := Evaluate(g, comms, scens, Options{
		Metrics:  m,
		OnResult: func(Result) { streamed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(scens)+rep.Promoted {
		t.Fatalf("streamed %d results, want %d", streamed, len(scens)+rep.Promoted)
	}
	if m.Scenarios.Load() != int64(len(scens)) {
		t.Fatalf("scenario counter %d, want %d", m.Scenarios.Load(), len(scens))
	}
	if m.WarmHits.Load() != int64(rep.WarmHits) {
		t.Fatalf("warm counter %d, report says %d", m.WarmHits.Load(), rep.WarmHits)
	}
	if m.Promotions.Load() != int64(rep.Promoted) {
		t.Fatalf("promotion counter %d, report says %d", m.Promotions.Load(), rep.Promoted)
	}
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, rung := range []string{"coarse", "fine"} {
		series := `beyondftd_whatif_rung_ms_count{rung="` + rung + `"} `
		if !strings.Contains(b.String(), series) || strings.Contains(b.String(), series+"0\n") {
			t.Fatalf("%s rung latency histogram empty", rung)
		}
	}
}

// TestWhatifCancellation: a canceled context aborts the sweep with its
// error instead of returning a partial report.
func TestWhatifCancellation(t *testing.T) {
	g := testFabric(12)
	comms := testComms(12)
	scens, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Evaluate(g, comms, scens, Options{Ctx: ctx}); err != context.Canceled {
		t.Fatalf("canceled sweep returned %v", err)
	}
}

// TestWhatifInvalidDelta: a scenario whose delta does not apply surfaces
// as an error, not a panic or silent skip.
func TestWhatifInvalidDelta(t *testing.T) {
	g := testFabric(8)
	comms := testComms(8)
	scens := []Scenario{{ID: "bogus", Delta: graph.Delta{DelNodes: []int{99}}}}
	if _, err := Evaluate(g, comms, scens, Options{}); err == nil {
		t.Fatal("invalid delta accepted")
	}
}

// BenchmarkWhatifSingleLinkSweep is a full single-link-failure sweep with warm starts and the ε ladder on
// the 24-switch test fabric, reporting amortized per-scenario cost.
func BenchmarkWhatifSingleLinkSweep(b *testing.B) {
	const n = 24
	g := testFabric(n)
	comms := testComms(n)
	scens, err := Scenarios(g, FamilySpec{Kind: "single-link"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var iters int64
	for i := 0; i < b.N; i++ {
		rep, err := Evaluate(g, comms, scens, Options{})
		if err != nil {
			b.Fatal(err)
		}
		iters = rep.Iterations
	}
	b.ReportMetric(float64(iters)/float64(len(scens)), "iters/scenario")
}
