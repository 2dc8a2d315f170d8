package fluid

import (
	"fmt"
	"math/rand"
	"testing"

	"beyondft/internal/golden"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
)

const goldenPath = "testdata/gk_golden.json"

// goldenRecord pins one solve bit for bit, floats as golden.Bits.
type goldenRecord struct {
	Name       string `json:"name"`
	Throughput string `json:"throughput_bits"`
	UpperBound string `json:"upper_bound_bits"`
	Phases     int    `json:"phases"`
	Iterations int    `json:"iterations"`
	DualsFNV   string `json:"duals_fnv64a"`
}

// goldenCase is one pinned (topology, TM, ε, start, workers) instance. A
// warm case first solves itself at goldenCoarseEps with ExportDuals and
// seeds the recorded solve from those duals — the what-if and search
// engines' coarse-to-fine ladder.
type goldenCase struct {
	topo    string
	tm      string
	eps     float64
	warm    bool
	workers int
}

const goldenCoarseEps = 0.25

var goldenCases = []goldenCase{
	{"jellyfish24", "longest-matching", 0.25, false, 1},
	{"jellyfish24", "all-to-all", 0.08, false, 4},
	{"jellyfish24", "permutation", 0.08, true, 1},
	{"jellyfish54", "longest-matching", 0.08, false, 1},
	{"jellyfish54", "longest-matching", 0.08, false, 4},
	{"jellyfish54", "longest-matching", 0.08, true, 4},
	{"jellyfish54", "permutation", 0.25, false, 1},
	{"jellyfish72", "longest-matching", 0.25, false, 4},
	{"jellyfish72", "permutation", 0.08, true, 1},
	{"xpander9x5", "longest-matching", 0.08, false, 1},
	{"xpander9x5", "all-to-all", 0.25, false, 4},
	{"fattree8", "permutation", 0.08, false, 1},
	{"fattree8", "longest-matching", 0.08, true, 4},
}

func (c goldenCase) name() string {
	start := "cold"
	if c.warm {
		start = "warm"
	}
	return fmt.Sprintf("%s/%s/eps%g/%s/w%d", c.topo, c.tm, c.eps, start, c.workers)
}

func goldenTopology(name string) *topology.Topology {
	rng := rand.New(rand.NewSource(13))
	switch name {
	case "jellyfish24":
		return topology.NewJellyfish(24, 9, 6, rng)
	case "jellyfish54":
		return topology.NewJellyfish(54, 9, 6, rng)
	case "jellyfish72":
		return topology.NewJellyfish(72, 9, 6, rng)
	case "xpander9x5":
		return &topology.NewXpander(9, 5, 6, rng).Topology
	case "fattree8":
		return &topology.NewFatTree(8).Topology
	}
	panic("unknown golden topology " + name)
}

func goldenInstance(c goldenCase) (*Network, []Commodity) {
	t := goldenTopology(c.topo)
	racks := t.ToRs()
	serversOf := func(r int) int { return t.Servers[r] }
	var m *tm.TM
	switch c.tm {
	case "longest-matching":
		m = tm.LongestMatching(t.G, racks, serversOf)
	case "permutation":
		m = tm.RandomPermutation(racks, serversOf, rand.New(rand.NewSource(17)))
	case "all-to-all":
		m = tm.AllToAll(racks, serversOf)
	default:
		panic("unknown golden TM " + c.tm)
	}
	return NewNetwork(t.G, 1.0), Commodities(m)
}

func goldenSolve(c goldenCase) goldenRecord {
	nw, comms := goldenInstance(c)
	var tel GKTelemetry
	opt := GKOptions{Epsilon: c.eps, Workers: c.workers, ExportDuals: true, Observer: &tel}
	if c.warm {
		coarse := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: goldenCoarseEps, Workers: c.workers, ExportDuals: true})
		opt.WarmStart = coarse.Duals
	}
	res := MaxConcurrentFlow(nw, comms, opt)
	return goldenRecord{
		Name:       c.name(),
		Throughput: golden.Bits(res.Throughput),
		UpperBound: golden.Bits(res.UpperBound),
		Phases:     res.Phases,
		Iterations: tel.Iterations,
		DualsFNV:   golden.FNV(res.Duals),
	}
}

// TestGKGoldenBitIdentity holds the solver to the outputs recorded before
// the routing kernel was rewritten (DESIGN.md §7): throughput and dual
// bound to the bit, phase and routing-Dijkstra counts, and a hash of every
// final dual length. The heap's push/pop sequence decides paths among the
// exactly tied lengths GK produces, so any kernel change that alters it
// shows up here; regenerate with `go test ./internal/fluid -run
// TestGKGoldenBitIdentity -update` only together with a CodeSalt bump and a
// new benchmark reference.
func TestGKGoldenBitIdentity(t *testing.T) {
	if *golden.Update {
		recs := make([]goldenRecord, len(goldenCases))
		for i, c := range goldenCases {
			recs[i] = goldenSolve(c)
		}
		golden.Write(t, goldenPath, recs, "  ")
		return
	}
	var recs []goldenRecord
	golden.Read(t, goldenPath, &recs)
	want := make(map[string]goldenRecord, len(recs))
	for _, r := range recs {
		want[r.Name] = r
	}
	if len(want) != len(goldenCases) {
		t.Fatalf("%s holds %d records, the test has %d cases", goldenPath, len(want), len(goldenCases))
	}
	for _, c := range goldenCases {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			w, ok := want[c.name()]
			if !ok {
				t.Fatalf("no golden record; run with -update on a known-good commit")
			}
			if got := goldenSolve(c); got != w {
				t.Fatalf("solver output moved:\n got %+v\nwant %+v", got, w)
			}
		})
	}
}
