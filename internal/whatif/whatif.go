// Package whatif is the incremental scenario engine: it evaluates large
// families of perturbed topologies — single-link/single-switch failures,
// sampled k-link failures, rack additions — for far less than one cold
// solve per scenario. Three mechanisms stack:
//
//  1. delta-aware CSR overlays (graph.Overlay) patch the base topology's
//     frozen view per scenario instead of rebuilding it;
//  2. warm-started GK (fluid.GKOptions.WarmStart) seeds every scenario's
//     dual lengths from the base solve's exported duals, mapped arc-by-arc
//     through fluid.Network.ArcIndex;
//  3. the shared ε-ladder (internal/eval) solves the whole family at coarse
//     ε to rank it, then re-solves only the worst-k frontier at fine ε,
//     warm-started from each scenario's own coarse duals.
//
// Results are deterministic at any worker count and any cache history, and
// content-addressable per scenario (eval.Store), so interrupted sweeps
// resume. DESIGN.md §12 documents the architecture.
package whatif

import (
	"cmp"
	"fmt"
	"math/rand"

	"beyondft/internal/eval"
	"beyondft/internal/graph"
	"beyondft/internal/obs"
	"beyondft/internal/stats"
)

// FamilySpec names a scenario family to enumerate against a base topology.
// Fields irrelevant to the chosen kind are zeroed during normalization so
// specs that differ only in ignored fields are one family.
type FamilySpec struct {
	// Kind selects the family:
	//   single-link    — one scenario per distinct edge, failing one unit
	//                    of its multiplicity (one physical cable of a trunk)
	//   single-switch  — one scenario per switch, masking it entirely
	//   k-link-sample  — Samples scenarios, each failing K distinct edges
	//   rack-add       — Samples scenarios, each appending Racks switches
	//                    wired with Degree random links (Jellyfish-style
	//                    incremental expansion; demands stay on base racks)
	Kind    string `json:"kind"`
	K       int    `json:"k,omitempty"`       // k-link-sample: edges failed per scenario
	Samples int    `json:"samples,omitempty"` // sampled families: scenario count
	Racks   int    `json:"racks,omitempty"`   // rack-add: switches appended per scenario
	Degree  int    `json:"degree,omitempty"`  // rack-add: links per appended switch
	Seed    int64  `json:"seed,omitempty"`    // sampled families: RNG seed
}

// Normalize fills defaults, zeroes ignored fields and validates. Each kind
// rebuilds the spec from the fields it reads; the rest is zero by
// construction.
func (f *FamilySpec) Normalize() error {
	switch f.Kind {
	case "single-link", "single-switch":
		*f = FamilySpec{Kind: f.Kind}
	case "k-link-sample":
		*f = FamilySpec{Kind: f.Kind, K: cmp.Or(f.K, 3), Samples: cmp.Or(f.Samples, 32), Seed: cmp.Or(f.Seed, 1)}
		if f.K < 1 || f.K > 64 {
			return fmt.Errorf("whatif: k=%d: need [1,64]", f.K)
		}
	case "rack-add":
		*f = FamilySpec{Kind: f.Kind, Racks: cmp.Or(f.Racks, 1), Degree: cmp.Or(f.Degree, 4),
			Samples: cmp.Or(f.Samples, 8), Seed: cmp.Or(f.Seed, 1)}
		if f.Racks < 1 || f.Racks > 64 {
			return fmt.Errorf("whatif: racks=%d: need [1,64]", f.Racks)
		}
		if f.Degree < 1 || f.Degree > 256 {
			return fmt.Errorf("whatif: degree=%d: need [1,256]", f.Degree)
		}
	default:
		return fmt.Errorf("whatif: unknown family kind %q (want single-link|single-switch|k-link-sample|rack-add)", f.Kind)
	}
	if f.Samples < 0 || f.Samples > 4096 {
		return fmt.Errorf("whatif: samples=%d: need [1,4096]", f.Samples)
	}
	return nil
}

// Scenario is one perturbed topology: a stable id plus the delta that
// produces it from the base view.
type Scenario struct {
	ID    string      `json:"id"`
	Delta graph.Delta `json:"delta"`
}

// Scenarios enumerates the family against a base graph, in deterministic
// order (the order is part of the engine's determinism contract: result
// slices and histograms are index-aligned with it).
func Scenarios(g *graph.Graph, f FamilySpec) ([]Scenario, error) {
	if err := f.Normalize(); err != nil {
		return nil, err
	}
	var out []Scenario
	switch f.Kind {
	case "single-link":
		for _, e := range g.Edges() {
			out = append(out, Scenario{
				ID:    fmt.Sprintf("link-%d-%d", e.U, e.V),
				Delta: graph.Delta{DelEdges: []graph.Edge{{U: e.U, V: e.V, Mult: 1}}},
			})
		}
	case "single-switch":
		for u := 0; u < g.N(); u++ {
			out = append(out, Scenario{
				ID:    fmt.Sprintf("switch-%d", u),
				Delta: graph.Delta{DelNodes: []int{u}},
			})
		}
	case "k-link-sample":
		edges := g.Edges()
		k := f.K
		if k > len(edges) {
			k = len(edges)
		}
		for s := 0; s < f.Samples; s++ {
			// One RNG per scenario, derived from (seed, index): the sample
			// set is independent of evaluation order and worker count.
			rng := rand.New(rand.NewSource(f.Seed + int64(s)*1000003))
			var del []graph.Edge
			for _, i := range rng.Perm(len(edges))[:k] {
				del = append(del, graph.Edge{U: edges[i].U, V: edges[i].V, Mult: 1})
			}
			out = append(out, Scenario{
				ID:    fmt.Sprintf("sample-%d", s),
				Delta: graph.Delta{DelEdges: del},
			})
		}
	case "rack-add":
		n := g.N()
		deg := f.Degree
		if deg > n {
			deg = n
		}
		for s := 0; s < f.Samples; s++ {
			rng := rand.New(rand.NewSource(f.Seed + int64(s)*1000003))
			d := graph.Delta{AddNodes: f.Racks}
			for r := 0; r < f.Racks; r++ {
				for _, t := range rng.Perm(n)[:deg] {
					d.AddEdges = append(d.AddEdges, graph.Edge{U: n + r, V: t})
				}
			}
			out = append(out, Scenario{ID: fmt.Sprintf("expand-%d", s), Delta: d})
		}
	}
	return out, nil
}

// Ladder is the epsilon-ladder policy: rank everything at CoarseEps, then
// re-solve the worst TopK scenarios at FineEps. Unpromoted scenarios keep
// their coarse result (tagged with the ε it was solved at). Equal rungs make
// a one-rung sweep: everything solved once at that ε, nothing promoted.
type Ladder struct {
	CoarseEps float64 `json:"coarse_eps,omitempty"` // default eval.DefaultCoarseEps
	FineEps   float64 `json:"fine_eps,omitempty"`   // default eval.DefaultFineEps
	TopK      int     `json:"top_k,omitempty"`      // frontier size; default 8
}

// Normalize fills defaults and validates.
func (l *Ladder) Normalize() error {
	if l.TopK == 0 {
		l.TopK = 8
	}
	if err := eval.NormalizeRungs(&l.CoarseEps, &l.FineEps); err != nil {
		return fmt.Errorf("whatif: %w", err)
	}
	if l.TopK < 0 {
		return fmt.Errorf("whatif: top_k=%d: need >= 0", l.TopK)
	}
	return nil
}

// Result is one scenario's evaluated outcome. The encoding is
// content-stable (no timings, no machine state), so it doubles as the
// cached representation.
type Result struct {
	ID         string  `json:"id"`
	Throughput float64 `json:"throughput"`  // raw GK per-server fraction (not clamped)
	UpperBound float64 `json:"upper_bound"` // GK dual bound
	Epsilon    float64 `json:"epsilon"`     // the ε this result was solved at
	Phases     int     `json:"phases"`
	// Promoted marks frontier scenarios re-solved at fine ε: family state
	// (promotion depends on the family, not the scenario), set per sweep
	// and never read back from a cached entry.
	Promoted bool `json:"promoted,omitempty"`
	// Disconnected means the delta cut off at least one commodity
	// endpoint: throughput is exactly 0 and no solve ran.
	Disconnected bool `json:"disconnected,omitempty"`
}

// Report is a full family evaluation.
type Report struct {
	// Base is the unperturbed topology solved at fine ε (itself
	// warm-started from the coarse base solve that seeds every scenario).
	Base Result `json:"base"`
	// Results is index-aligned with the scenario slice.
	Results []Result `json:"results"`
	// Hist bins min(throughput,1) into 20 fixed bins over [0,1]: the
	// sweep's headline artifact, deterministic across runs and workers.
	Hist stats.Hist `json:"hist"`
	// WorstIDs lists the promoted frontier, worst throughput first.
	WorstIDs  []string `json:"worst_ids,omitempty"`
	Evaluated int      `json:"evaluated"`  // scenarios solved (cache misses)
	CacheHits int      `json:"cache_hits"` // scenarios served from the cache
	Promoted  int      `json:"promoted"`   // frontier re-solves at fine ε
	WarmHits  int      `json:"warm_hits"`  // solves that ran with a warm seed
	// Iterations counts routing Dijkstras spent across every solve in the
	// sweep, base solves included — the deterministic cost measure the
	// <25%-of-cold acceptance test compares against. Excluded from JSON:
	// it is a property of this run, not of the result.
	Iterations int64 `json:"-"`
}

// Metrics is the engine's counter/histogram set on a shared obs.Registry.
// A nil *Metrics (or one from a nil registry) is fully operational as
// no-ops.
type Metrics struct {
	Scenarios    *obs.Counter
	CacheHits    *obs.Counter
	WarmHits     *obs.Counter
	WarmMisses   *obs.Counter
	Promotions   *obs.Counter
	Disconnected *obs.Counter
	RungCoarse   *obs.Histogram // per-scenario solve latency, coarse rung
	RungFine     *obs.Histogram // per-scenario solve latency, fine rung
}

// NewMetrics binds the engine's series on r (nil-safe).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Scenarios:    r.Counter("beyondftd_whatif_scenarios_total"),
		CacheHits:    r.Counter("beyondftd_whatif_cache_hits_total"),
		WarmHits:     r.Counter("beyondftd_whatif_warm_hits_total"),
		WarmMisses:   r.Counter("beyondftd_whatif_warm_misses_total"),
		Promotions:   r.Counter("beyondftd_whatif_promotions_total"),
		Disconnected: r.Counter("beyondftd_whatif_disconnected_total"),
		RungCoarse:   r.Histogram(`beyondftd_whatif_rung_ms{rung="coarse"}`, nil),
		RungFine:     r.Histogram(`beyondftd_whatif_rung_ms{rung="fine"}`, nil),
	}
}

// ScenarioCache is the content-addressed per-scenario result store: one
// entry per (base instance, rung, delta), so an interrupted sweep resumes
// where it stopped and a re-ranked family reuses every already-solved rung.
// BaseSpec must canonically describe everything a scenario result depends
// on besides its delta — topology spec, traffic matrix, link capacity.
type ScenarioCache = eval.Store
