package search

import (
	"fmt"
	"runtime"
	"testing"

	"beyondft/internal/golden"
	"beyondft/internal/harness"
)

const traceGoldenPath = "testdata/trace_golden.json"

// traceGolden is everything of a search the trajectory defines.
type traceGolden struct {
	Trace      string `json:"trace"`
	Spent      int    `json:"spent"`
	FineSolves int    `json:"fine_solves"`
	BestHash   string `json:"best_hash"`
}

func traceGoldenOf(res *Result) traceGolden {
	return traceGolden{res.Trace(), res.Spent, res.FineSolves, res.BestHash}
}

// goldenSearches are small searches from testBase whose accept sequences
// differ in kind: mostly accepted, mostly rejected, a mixture, no fine rung
// at all, and a budget that runs out inside a batch.
var goldenSearches = map[string]func(*Options){
	"anneal": func(o *Options) { o.Budget = 25 },
	"hillclimb": func(o *Options) {
		o.Budget = 25
		o.Strategy = "hillclimb"
	},
	"anneal-cold": func(o *Options) {
		o.Budget = 25
		o.Temp = 1e-4
	},
	"one-rung": func(o *Options) {
		o.Budget = 15
		o.FineEps = o.CoarseEps
	},
	// 1 + 3·4 = 13 of 14 spent after four steps: the fifth solves one
	// candidate of its ProxyTop 3.
	"mid-batch": func(o *Options) {
		o.Budget = 14
		o.Batch = 6
		o.ProxyTop = 3
	},
}

func goldenOptions(name string) Options {
	opt := testOpts()
	goldenSearches[name](&opt)
	return opt
}

// TestSearchTraceGolden pins what a search's trajectory defines — the trace,
// the budget spent, the fine solves and the best design — for each golden
// search, and holds every worker count and cache state to it: cold at 1, 2
// and NumCPU workers on one shared cache directory per search, so every run
// after the first is also a run over a warm cache. Regenerate with
// `go test ./internal/search -run TraceGolden -update`.
func TestSearchTraceGolden(t *testing.T) {
	if *golden.Update {
		got := map[string]traceGolden{}
		for name := range goldenSearches {
			opt := goldenOptions(name)
			opt.Workers = 1
			res, err := Run(testBase(t), testParams(), opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got[name] = traceGoldenOf(res)
		}
		golden.Write(t, traceGoldenPath, got, " ")
		return
	}
	var want map[string]traceGolden
	golden.Read(t, traceGoldenPath, &want)
	for name := range goldenSearches {
		t.Run(name, func(t *testing.T) {
			cache, err := harness.OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			type run struct {
				workers int
				cache   *CandidateCache
			}
			runs := []run{{1, nil}, {2, nil}, {runtime.NumCPU(), nil}}
			for _, w := range []int{2, 1, runtime.NumCPU()} {
				runs = append(runs, run{w, &CandidateCache{Cache: cache}})
			}
			for _, r := range runs {
				opt := goldenOptions(name)
				opt.Workers, opt.Cache = r.workers, r.cache
				what := fmt.Sprintf("workers=%d cache=%t", r.workers, r.cache != nil)
				res, err := Run(testBase(t), testParams(), opt)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if got := traceGoldenOf(res); got != want[name] {
					t.Fatalf("%s: search changed\n--- want ---\n%+v\n--- got ---\n%+v", what, want[name], got)
				}
			}
		})
	}
}
