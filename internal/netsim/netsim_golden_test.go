package netsim

import (
	"math/rand"
	"testing"

	"beyondft/internal/golden"
	"beyondft/internal/topology"
)

const goldenPath = "testdata/netsim_golden.json"

// goldenRecord pins one packet-level run, floats as golden.Bits.
type goldenRecord struct {
	Name           string `json:"name"`
	Events         uint64 `json:"events"`
	Drops          uint64 `json:"drops"`
	HeapHighWater  int    `json:"heap_high_water"`
	FlowsCompleted int64  `json:"flows_completed"`
	MeanFCT        string `json:"mean_fct_bits"`
	P99FCT         string `json:"p99_fct_bits"`
	TransmittedSum uint64 `json:"transmitted_sum"`
	LinksFNV       string `json:"links_transmitted_fnv64a"`
}

// goldenCase is one pinned (topology, routing, load) scenario. queueCap > 0
// shrinks every output queue (and the ECN threshold with it) so the run
// drops packets and recovers through fast retransmit and the RTO timer.
// cutAt > 0 stops the run after that many arrivals, round-trips a
// checkpoint through JSON, restores it into a fresh network and finishes
// there.
type goldenCase struct {
	name      string
	topo      string
	routing   RoutingScheme
	flows     int
	meanGapNs float64
	queueCap  int
	cutAt     int
}

// The resume case cuts early, well before the run's heap peak, so its
// HeapHighWater equals the uninterrupted run's whether or not a checkpoint
// carries the high water across.
var goldenCases = []goldenCase{
	{name: "fattree4/ecmp", topo: "fattree4", routing: ECMP, flows: 400, meanGapNs: 15_000},
	{name: "xpander4x5/hyb", topo: "xpander4x5", routing: HYB, flows: 400, meanGapNs: 12_000},
	{name: "jellyfish12/vlb/cap16", topo: "jellyfish12", routing: VLB, flows: 300, meanGapNs: 4_000, queueCap: 16},
	{name: "fattree4/hyb/resume@40", topo: "fattree4", routing: HYB, flows: 300, meanGapNs: 20_000, cutAt: 40},
}

func goldenTopology(name string) *topology.Topology {
	rng := rand.New(rand.NewSource(13))
	switch name {
	case "fattree4":
		return &topology.NewFatTree(4).Topology
	case "xpander4x5":
		return &topology.NewXpander(4, 5, 2, rng).Topology
	case "jellyfish12":
		return topology.NewJellyfish(12, 4, 2, rng)
	}
	panic("unknown golden topology " + name)
}

func goldenRun(t *testing.T, c goldenCase) goldenRecord {
	t.Helper()
	topo := goldenTopology(c.topo)
	cfg := scaleCfg(42)
	cfg.Routing = c.routing
	if c.queueCap > 0 {
		cfg.QueueCapPackets = c.queueCap
		cfg.ECNThresholdPackets = c.queueCap / 2
	}
	arrivals := drawArrivals(17, c.flows, topo.TotalServers(), c.meanGapNs)
	n := NewNetwork(topo, cfg)
	if c.cutAt > 0 {
		driveUntil(n, arrivals, c.cutAt)
		n, _ = checkpointRoundTrip(t, n, nil)
	}
	drive(n, arrivals, c.cutAt)

	var sum uint64
	tx := make([]uint64, len(n.allLinks))
	for i, l := range n.allLinks {
		sum += l.Transmitted
		tx[i] = l.Transmitted
	}
	return goldenRecord{
		Name:           c.name,
		Events:         n.Eng.Processed(),
		Drops:          n.TotalDrops,
		HeapHighWater:  n.LoopStats().HeapHighWater,
		FlowsCompleted: n.ended,
		MeanFCT:        golden.Bits(n.FCTMoments().Mean()),
		P99FCT:         golden.Bits(n.FCTSketch().Quantile(0.99)),
		TransmittedSum: sum,
		LinksFNV:       golden.FNV(tx),
	}
}

// TestNetsimGoldenBitIdentity holds the packet simulator to outputs
// recorded before sim.Engine's event queue was replaced (DESIGN.md §13,
// "The event queue"): event, drop and completion counts, the heap high
// water, mean and p99 FCT to the bit, and every link's Transmitted counter
// (as a sum and an FNV-64a over the per-link values). Event keys (at, seq)
// are unique, so a queue that pops in key order reproduces these whatever
// its layout; link-queue storage, the RTO timer's scheduling route and the
// checkpoint format are free to change under it too. Regenerate with `go
// test ./internal/netsim -run TestNetsimGoldenBitIdentity -update` only
// when the simulated behaviour is meant to change.
func TestNetsimGoldenBitIdentity(t *testing.T) {
	if *golden.Update {
		recs := make([]goldenRecord, len(goldenCases))
		for i, c := range goldenCases {
			recs[i] = goldenRun(t, c)
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
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			w, ok := want[c.name]
			if !ok {
				t.Fatalf("no golden record; run with -update on a known-good commit")
			}
			if got := goldenRun(t, c); got != w {
				t.Fatalf("simulator output moved:\n got %+v\nwant %+v", got, w)
			}
		})
	}
}

// TestNetsimGoldenResumeMatchesCold: the resume case's record must equal
// the same scenario run without the cut, so the pinned bytes are those of
// an uninterrupted run and not an artefact of where the checkpoint fell.
func TestNetsimGoldenResumeMatchesCold(t *testing.T) {
	for _, c := range goldenCases {
		if c.cutAt == 0 {
			continue
		}
		cold := c
		cold.cutAt = 0
		if got, want := goldenRun(t, c), goldenRun(t, cold); got != want {
			t.Fatalf("%s: resumed run differs from uninterrupted:\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}
