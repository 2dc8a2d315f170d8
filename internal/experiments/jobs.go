package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"beyondft/internal/harness"
)

// CodeSalt versions the experiment drivers for the result cache: bump it
// whenever a driver's computation changes (new series, different salts,
// different defaults) so stale cached results are invalidated even though
// job names and Config specs are unchanged.
//
// v2: the GK solver tracks D(l) incrementally (PR 2), which shifts
// throughput values by floating-point drift relative to the per-phase
// rescan — enough to change cached CSV bytes.
//
// v3: simulator bugfix sweep (PR 4). netsim's ECN marking moved to DCTCP
// instant-queue semantics (first mark at occupancy K, one packet earlier
// than before) and flowsim's event loop rounds departures up instead of
// truncating — both shift every packet- and flow-level figure.
//
// v4: million-flow scale tier (PR 7). Experiments draw workload randomness
// from sim.RNG instead of math/rand (different stream at the same seed) and
// P99ShortFCTMs is now a streamed sketch estimate, shifting every
// packet-level figure.
const CodeSalt = harness.Version + "+experiments-v4"

// JobResult is the cacheable output of one experiment job: the figures the
// driver produced. It round-trips through JSON losslessly (floats use the
// shortest representation that parses back exactly), which is what makes
// cached re-runs byte-identical at the CSV level.
type JobResult struct {
	Figures []*Figure `json:"figures"`
}

// DecodeJobResult rebuilds a JobResult from its JSON encoding — the exact
// inverse of the encoding the harness caches and the serving daemon
// returns over HTTP, so clients of either can round-trip results
// losslessly.
func DecodeJobResult(data []byte) (*JobResult, error) {
	var jr JobResult
	if err := json.Unmarshal(data, &jr); err != nil {
		return nil, err
	}
	return &jr, nil
}

// decodeJobResult adapts DecodeJobResult to harness.Job.Decode.
func decodeJobResult(data []byte) (any, error) {
	return DecodeJobResult(data)
}

// writeFigureCSVs renders every figure of a result as <dir>/<figureID>.csv.
func writeFigureCSVs(result any, dir string) ([]string, error) {
	jr, ok := result.(*JobResult)
	if !ok {
		return nil, fmt.Errorf("experiments: unexpected result type %T", result)
	}
	var paths []string
	for _, f := range jr.Figures {
		var buf bytes.Buffer
		if err := f.WriteCSV(&buf); err != nil {
			return nil, fmt.Errorf("csv %s: %w", f.ID, err)
		}
		p := filepath.Join(dir, f.ID+".csv")
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// one lifts a single-figure driver into the []*Figure shape.
func one(f func(Config) *Figure) func(Config) []*Figure {
	return func(c Config) []*Figure { return []*Figure{f(c)} }
}

// drivers is the registration table: every table/figure of the paper's
// evaluation (plus the extensions) as (job name, driver) pairs, in paper
// order. `beyondft run`, the daemon and the harness benchmarks all consume
// this one table via Config.Registry.
var drivers = []struct {
	name string
	run  func(Config) []*Figure
}{
	{"table1", one(func(Config) *Figure { return Table1CostModel() })},
	{"fig2", one(func(Config) *Figure { return Figure2TP() })},
	{"fig3", one(Config.Figure3Xpander)},
	{"fig4", one(Config.Figure4Toy)},
	{"fig5a", one(Config.Figure5a)},
	{"fig5b", one(Config.Figure5b)},
	{"fig5alt", one(Config.Figure5Alt)},
	{"fig6a", one(Config.Figure6a)},
	{"fig6b", one(Config.Figure6b)},
	{"fig7b", Config.Figure7b},
	{"fig7c", Config.Figure7c},
	{"fig8", one(func(Config) *Figure { return Figure8FlowSizes() })},
	{"fig9", Config.Figure9},
	{"fig10", Config.Figure10},
	{"fig11", Config.Figure11},
	{"fig12", Config.Figure12},
	{"fig13", Config.Figure13},
	{"fig14", Config.Figure14},
	{"fig15", Config.Figure15},
	{"fig-rotor", Config.ExtensionRotorNet},
	{"fig-failures", one(Config.ExtensionFailureResilience)},
}

// Spec returns the canonical job spec for this configuration: its JSON
// encoding. Config is a flat value type, so the encoding is deterministic
// and captures everything a driver's output depends on (scale, seed,
// epsilon, measurement windows).
func (c Config) Spec() string {
	data, err := json.Marshal(c)
	if err != nil {
		// Config is a flat struct of scalars; this cannot fail.
		panic(fmt.Sprintf("experiments: encode config: %v", err))
	}
	return string(data)
}

// Job builds the harness job for one driver at configuration c. Drivers are
// pure functions of (Config, job name): every random draw inside derives
// from Config.Seed and a call-site-specific salt, so results are identical
// whether jobs run serially, in parallel, or in any order (see
// TestJobsOrderAndParallelismInvariant).
func (c Config) job(name string, run func(Config) []*Figure) harness.Job {
	return harness.Job{
		Name: name,
		Spec: c.Spec(),
		Run: func(ctx context.Context) (any, error) {
			return &JobResult{Figures: run(c)}, nil
		},
		Decode:    decodeJobResult,
		Artifacts: writeFigureCSVs,
	}
}

// Registry registers every table/figure driver as a harness job at
// configuration c, in paper order.
func (c Config) Registry() *harness.Registry {
	r := harness.NewRegistry()
	for _, d := range drivers {
		r.MustRegister(c.job(d.name, d.run))
	}
	return r
}
