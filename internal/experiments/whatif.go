package experiments

import (
	"context"
	"encoding/json"
	"fmt"

	"beyondft/internal/fluid"
	"beyondft/internal/harness"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
	"beyondft/internal/whatif"
)

// whatifSpecVersion versions the what-if sweep jobs for the result cache —
// bump it when the family grid, base fabric, or figure shapes change.
const whatifSpecVersion = "whatif-jobs-v1"

// whatifFamilies is the registration grid: one job per scenario family,
// evaluated against the shared base fabric. Sizes are fixed here (not
// Config-dependent) so job names stay stable across scales.
var whatifFamilies = []struct {
	name string
	fam  whatif.FamilySpec
}{
	{"whatif-single-link", whatif.FamilySpec{Kind: "single-link"}},
	{"whatif-single-switch", whatif.FamilySpec{Kind: "single-switch"}},
	{"whatif-k-link", whatif.FamilySpec{Kind: "k-link-sample", K: 3, Samples: 32}},
	{"whatif-rack-add", whatif.FamilySpec{Kind: "rack-add", Racks: 2, Degree: 4, Samples: 8}},
}

// WhatifBase builds the base fabric the what-if sweeps perturb: the §6.4
// cheap Xpander at paper scale, a 20-switch degree-4 Xpander scaled. The
// longest-matching traffic matrix over all racks keeps the demand side
// deterministic, so every sweep is a pure function of Config.
func (c Config) WhatifBase() *topology.Xpander {
	if c.Full {
		return c.CheapXpander()
	}
	return topology.NewXpander(4, 5, 2, c.rng(31))
}

// whatifFigures runs one family sweep and renders it as two figures: the
// throughput histogram over all scenarios and the worst-k frontier after
// fine re-solves. Only scenario content enters the figures — cache/warm
// bookkeeping is excluded, so resumed sweeps are byte-identical to cold
// ones and the harness cache invariants hold.
func (c Config) whatifFigures(ctx context.Context, name string, fam whatif.FamilySpec, cache *harness.Cache) ([]*Figure, error) {
	base := c.WhatifBase()
	t := &base.Topology
	serversOf := func(rack int) int { return t.Servers[rack] }
	m := tm.LongestMatching(t.G, t.ToRs(), serversOf)
	scens, err := whatif.Scenarios(t.G, fam)
	if err != nil {
		return nil, err
	}
	// The figure-grade Config.Epsilon is the fine rung; the coarse rung and
	// the frontier width take the engine defaults.
	ladder := whatif.Ladder{FineEps: c.Epsilon}
	if err := ladder.Normalize(); err != nil {
		return nil, err
	}
	sc := &whatif.ScenarioCache{ // inert when cache is nil
		Cache:    cache,
		BaseSpec: fmt.Sprintf("%s|%s|%s", whatifSpecVersion, t.Name, c.Spec()),
	}
	rep, err := whatif.Evaluate(t.G, fluid.Commodities(m), scens, whatif.Options{
		Ladder: ladder,
		Ctx:    ctx,
		Cache:  sc,
	})
	if err != nil {
		return nil, err
	}

	w := (rep.Hist.Hi - rep.Hist.Lo) / float64(len(rep.Hist.Counts))
	hist := &Figure{
		ID:     name + "-hist",
		Title:  fmt.Sprintf("What-if %s: throughput distribution over %d scenarios (%s)", fam.Kind, len(scens), t.Name),
		XLabel: "throughput_bin",
		YLabel: "scenarios",
		Series: []Series{{Label: "count"}},
		Notes: []string{
			fmt.Sprintf("family=%s scenarios=%d coarse_eps=%g fine_eps=%g",
				fam.Kind, len(scens), ladder.CoarseEps, ladder.FineEps),
		},
	}
	for i, n := range rep.Hist.Counts {
		hist.Series[0].X = append(hist.Series[0].X, rep.Hist.Lo+(float64(i)+0.5)*w)
		hist.Series[0].Y = append(hist.Series[0].Y, float64(n))
	}

	byID := make(map[string]whatif.Result, len(rep.Results))
	for _, r := range rep.Results {
		byID[r.ID] = r
	}
	worst := &Figure{
		ID:     name + "-worst",
		Title:  fmt.Sprintf("What-if %s: worst-%d frontier after fine re-solve", fam.Kind, len(rep.WorstIDs)),
		XLabel: "rank",
		YLabel: "throughput",
		Series: []Series{{Label: "throughput"}, {Label: "upper_bound"}},
	}
	for i, id := range rep.WorstIDs {
		r := byID[id]
		worst.Series[0].X = append(worst.Series[0].X, float64(i+1))
		worst.Series[0].Y = append(worst.Series[0].Y, r.Throughput)
		worst.Series[1].X = append(worst.Series[1].X, float64(i+1))
		worst.Series[1].Y = append(worst.Series[1].Y, r.UpperBound)
		worst.Notes = append(worst.Notes, fmt.Sprintf("rank %d: %s (eps=%g)", i+1, id, r.Epsilon))
	}
	return []*Figure{hist, worst}, nil
}

// mustJSON canonically encodes a flat spec value for use in a job spec.
func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("experiments: encode spec: %v", err))
	}
	return string(data)
}

// WhatifJobs exposes the what-if sweeps to the experiment harness: one job
// per scenario family, cached at two granularities. The harness caches the
// whole JobResult under the (Config, family) spec; independently, every
// scenario solve is content-addressed in the same cache via ScenarioCache,
// so an interrupted or partially-invalidated sweep resumes from the
// scenarios already solved instead of restarting.
func (c Config) WhatifJobs(cache *harness.Cache) []harness.Job {
	jobs := make([]harness.Job, 0, len(whatifFamilies))
	for _, wf := range whatifFamilies {
		name, fam := wf.name, wf.fam
		jobs = append(jobs, harness.Job{
			Name: name,
			Spec: fmt.Sprintf("%s|%s|%s", whatifSpecVersion, c.Spec(), mustJSON(fam)),
			Run: func(ctx context.Context) (any, error) {
				figs, err := c.whatifFigures(ctx, name, fam, cache)
				if err != nil {
					return nil, err
				}
				return &JobResult{Figures: figs}, nil
			},
			Decode:    decodeJobResult,
			Artifacts: writeFigureCSVs,
		})
	}
	return jobs
}
