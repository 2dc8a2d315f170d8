// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver returns Figure values whose series carry
// the same rows the paper plots; `beyondft run` prints them and bench_test.go
// wraps them as benchmarks.
//
// Every driver runs at a laptop-scale default configuration (same per-server
// loads and cost ratios as the paper, smaller networks and windows) and at
// the paper-scale configuration when Config.Full is set. DESIGN.md §2
// documents the scaling substitution.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"beyondft/internal/netsim"
	"beyondft/internal/sim"
	"beyondft/internal/topology"
	"beyondft/internal/workload"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a reproduced table or figure: a set of series over a common
// x-axis, plus free-form notes (assumptions, substitutions).
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Fprint renders the figure as an aligned text table, one row per x value.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintf(w, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %20s", s.Label)
	}
	fmt.Fprintln(w)
	if len(f.Series) == 0 {
		return
	}
	for i := range f.Series[0].X {
		fmt.Fprintf(w, "%-14.4g", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(w, " %20.4g", s.Y[i])
			} else {
				fmt.Fprintf(w, " %20s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "   (y-axis: %s)\n\n", f.YLabel)
}

// WriteCSV renders the figure as CSV: a header row (x label then series
// labels) followed by one row per x value — ready for any plotting tool.
func (f *Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	if len(f.Series) > 0 {
		for i := range f.Series[0].X {
			row := []string{strconv.FormatFloat(f.Series[0].X[i], 'g', -1, 64)}
			for _, s := range f.Series {
				if i < len(s.Y) {
					row = append(row, strconv.FormatFloat(s.Y[i], 'g', -1, 64))
				} else {
					row = append(row, "")
				}
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Config scopes every experiment driver.
type Config struct {
	// Full switches to the paper-scale topologies, loads and windows.
	Full bool
	// Seed drives topology construction and workloads.
	Seed int64
	// Epsilon is the GK FPTAS approximation parameter for fluid figures.
	Epsilon float64

	// Packet-sim measurement window and safety cap (§6.4's [0.5s,1.5s) at
	// paper scale).
	MeasureStart sim.Time
	MeasureEnd   sim.Time
	MaxSimTime   sim.Time

	// keepWindows makes drivers honour the configured measurement window
	// verbatim instead of substituting their per-figure scaled defaults.
	// Unexported so it never enters job specs or cache keys (JSON skips
	// unexported fields); tests use it to run drivers on tiny windows.
	keepWindows bool
}

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		Epsilon:      0.09,
		MeasureStart: 20 * sim.Millisecond,
		MeasureEnd:   60 * sim.Millisecond,
		MaxSimTime:   1000 * sim.Millisecond,
	}
}

// PaperConfig returns the paper-scale configuration (§6.4 exactly).
func PaperConfig() Config {
	return Config{
		Full:         true,
		Seed:         1,
		Epsilon:      0.09,
		MeasureStart: 500 * sim.Millisecond,
		MeasureEnd:   1500 * sim.Millisecond,
		MaxSimTime:   10_000 * sim.Millisecond,
	}
}

// rng derives an independent random stream from (base seed, call-site salt).
// Determinism contract (enforced by TestJobsOrderAndParallelismInvariant):
// every random draw in a driver must come from an rng obtained here with a
// salt unique to that call site, and the returned *rand.Rand must never be
// shared across logically separate constructions — that keeps each job a
// pure function of its Config, so harness jobs produce identical figures
// whether they run serially, in parallel, or in any order.
func (c Config) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed*1_000_003 + salt))
}

// --- Shared topology configurations -------------------------------------

// FatTreeK returns the full-bandwidth baseline fat-tree: k=16 at paper
// scale (1024 servers, 320 switches), k=8 scaled (128 servers, 80 switches).
func (c Config) FatTreeK() int {
	if c.Full {
		return 16
	}
	return 8
}

// BaselineFatTree builds the §6.4 baseline.
func (c Config) BaselineFatTree() *topology.FatTree {
	return topology.NewFatTree(c.FatTreeK())
}

// CheapXpander builds the §6.4 Xpander at ~33% lower cost than the baseline
// fat-tree: paper scale 216 switches × 16 ports, 5 servers each (1080
// servers); scaled 54 switches × 8 ports, 3 servers each (162 servers).
func (c Config) CheapXpander() *topology.Xpander {
	if c.Full {
		return topology.NewXpander(11, 18, 5, c.rng(2)) // 216 switches
	}
	return topology.NewXpander(5, 9, 3, c.rng(2)) // 54 switches
}

// runExperiment executes one packet-sim point.
func (c Config) runExperiment(t *topology.Topology, routing netsim.RoutingScheme,
	serverLinkGbps float64, pairs workload.PairDist, sizes workload.FlowSizeDist,
	lambda float64, salt int64) workload.Result {
	cfg := netsim.DefaultConfig()
	cfg.Routing = routing
	cfg.ServerLinkRateGbps = serverLinkGbps
	cfg.Seed = c.Seed + salt
	net := netsim.NewNetwork(t, cfg)
	exp := workload.DefaultExperiment(pairs, sizes, lambda,
		c.MeasureStart, c.MeasureEnd, c.MaxSimTime, c.Seed+salt)
	return exp.Run(net)
}
