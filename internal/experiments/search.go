package experiments

import (
	"context"
	"fmt"

	"beyondft/internal/harness"
	"beyondft/internal/search"
)

// searchSpecVersion versions the design-search jobs for the result cache —
// bump it when the search configuration grid or figure shapes change
// (eval.Version separately versions the per-candidate GK entries).
const searchSpecVersion = "search-jobs-v1"

// searchRun is one registered design search: the generator coordinates of
// its starting point, the Config RNG stream the start is drawn from, and
// the search seed.
type searchRun struct {
	name   string
	start  search.Params
	stream int64
	seed   int64
}

// searchRuns is the registration grid: one job per starting family. Sizes
// are fixed here (not Config-dependent) so job names stay stable across
// scales; budgets come from Config via searchBudget.
var searchRuns = []searchRun{
	{"search-jellyfish", search.Params{Kind: "jellyfish", N: 16, Degree: 4, Servers: 3}, 37, 7},
	{"search-xpander", search.Params{Kind: "xpander", N: 15, Degree: 4, Lift: 3, Servers: 3}, 38, 7},
}

// searchBudget scales the candidate budget with the configuration: the
// default (smoke-grade) config keeps runs interactive, the paper config
// searches harder.
func (c Config) searchBudget() int {
	if c.Full {
		return 200
	}
	return 24
}

// searchFigure runs one seeded search and renders the best-found-vs-baseline
// trajectory: throughput of the accepted state and of the best design after
// every step, against the baseline's flat line. Only trace content enters
// the figure — cache and worker accounting are excluded, so resumed runs
// are byte-identical to cold ones.
func (c Config) searchFigure(ctx context.Context, sr searchRun, cache *harness.Cache) ([]*Figure, error) {
	base, params, err := search.Start(sr.start, c.rng(sr.stream))
	if err != nil {
		return nil, err
	}

	res, err := search.Run(base, params, search.Options{
		Seed:    sr.seed,
		Budget:  c.searchBudget(),
		FineEps: c.Epsilon,
		Name:    sr.name + "-best",
		Ctx:     ctx,
		Cache:   &search.CandidateCache{Cache: cache}, // inert when cache is nil
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID:     sr.name + "-trajectory",
		Title:  fmt.Sprintf("Design search from %s: best found vs baseline (equal cost)", res.BaselineName),
		XLabel: "step",
		YLabel: "throughput",
		Series: []Series{{Label: "baseline"}, {Label: "state"}, {Label: "best"}},
		Notes: []string{
			fmt.Sprintf("budget=%d spent=%d fine_eps=%g seed=%d envelope_servers=%d envelope_dollars=%.0f",
				c.searchBudget(), res.Spent, c.Epsilon, sr.seed, res.Envelope.Servers, res.Envelope.MaxDollars),
			fmt.Sprintf("baseline=%.6f best=%.6f at step %d (design %.12s)",
				res.Baseline, res.BestVal, res.BestStep, res.BestHash),
		},
	}
	for _, s := range res.Steps {
		x := float64(s.Step)
		fig.Series[0].X = append(fig.Series[0].X, x)
		fig.Series[0].Y = append(fig.Series[0].Y, res.Baseline)
		fig.Series[1].X = append(fig.Series[1].X, x)
		fig.Series[1].Y = append(fig.Series[1].Y, s.State)
		fig.Series[2].X = append(fig.Series[2].X, x)
		fig.Series[2].Y = append(fig.Series[2].Y, s.Best)
	}
	return []*Figure{fig}, nil
}

// SearchJobs exposes the design searches to the experiment harness: one job
// per starting family, cached at two granularities. The harness caches the
// whole JobResult under the (Config, run) spec; independently, every
// candidate GK evaluation is content-addressed in the same cache via
// CandidateCache, so an interrupted search resumes from the candidates
// already solved instead of restarting.
func (c Config) SearchJobs(cache *harness.Cache) []harness.Job {
	jobs := make([]harness.Job, 0, len(searchRuns))
	for _, sr := range searchRuns {
		sr := sr
		jobs = append(jobs, harness.Job{
			Name: sr.name,
			Spec: fmt.Sprintf("%s|%s|kind=%s,n=%d,degree=%d,lift=%d,srv=%d,seed=%d|budget=%d",
				searchSpecVersion, c.Spec(), sr.start.Kind, sr.start.N, sr.start.Degree, sr.start.Lift, sr.start.Servers, sr.seed, c.searchBudget()),
			Run: func(ctx context.Context) (any, error) {
				figs, err := c.searchFigure(ctx, sr, cache)
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
