package netsim

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"beyondft/internal/sim"
	"beyondft/internal/stats"
	"beyondft/internal/topology"
)

// arrival is one pre-drawn workload event for the pull-based drivers below.
type arrival struct {
	at        sim.Time
	src, dst  int
	sizeBytes int64
}

// drawArrivals pre-computes a deterministic arrival list so a driver can be
// split at any index for checkpoint/resume without replaying RNG state.
func drawArrivals(seed int64, flows, servers int, meanGapNs float64) []arrival {
	rng := sim.NewRNG(seed)
	out := make([]arrival, 0, flows)
	at := sim.Time(0)
	for i := 0; i < flows; i++ {
		at += sim.Time(rng.ExpFloat64()*meanGapNs) + 1
		src := rng.Intn(servers)
		dst := rng.Intn(servers)
		if dst == src {
			dst = (dst + 1) % servers
		}
		out = append(out, arrival{at, src, dst, int64(1_000 + rng.Intn(400_000))})
	}
	return out
}

// drive injects arrivals[from:] pull-style — run the engine to each arrival
// instant, then start the flow synchronously — and drains the network.
func drive(n *Network, arrivals []arrival, from int) {
	for _, a := range arrivals[from:] {
		n.Eng.Run(a.at)
		n.StartFlow(a.src, a.dst, a.sizeBytes)
	}
	n.Eng.Run(arrivals[len(arrivals)-1].at + 30*sim.Second)
}

// driveUntil injects arrivals[:cut] the way drive does and stops there,
// between Run calls: a point where the network can be checkpointed.
func driveUntil(n *Network, arrivals []arrival, cut int) {
	for _, a := range arrivals[:cut] {
		n.Eng.Run(a.at)
		n.StartFlow(a.src, a.dst, a.sizeBytes)
	}
}

// checkpointRoundTrip checkpoints n, passes the snapshot through JSON and
// restores it into a freshly built network on the same topology and config.
// It returns that network and the driver blob as it came back.
func checkpointRoundTrip(t *testing.T, n *Network, driver json.RawMessage) (*Network, json.RawMessage) {
	t.Helper()
	cp, err := n.Checkpoint(driver)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var cp2 Checkpoint
	if err := json.Unmarshal(blob, &cp2); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	n2 := NewNetwork(n.Topo, n.Cfg)
	if err := n2.Restore(&cp2); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return n2, cp2.Driver
}

// finalState captures everything the byte-identity gate compares: the full
// checkpoint (slab layout, RNG, sketch, counters) of a drained network.
func finalState(t *testing.T, n *Network) []byte {
	t.Helper()
	cp, err := n.Checkpoint(nil)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

func scaleCfg(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Routing = HYB
	cfg.Seed = seed
	cfg.DiscardCompleted = true
	return cfg
}

// TestNetsimCheckpointResumeByteIdentical is the packet-level acceptance
// gate: interrupting a run with a JSON checkpoint/restore round-trip must
// not perturb a single bit of the final state — sketch, counters, slab
// free list, RNG — versus the uninterrupted run.
func TestNetsimCheckpointResumeByteIdentical(t *testing.T) {
	topo := topology.NewFatTree(4)
	servers := topo.TotalServers()
	arrivals := drawArrivals(17, 300, servers, float64(20*sim.Microsecond))

	// Uninterrupted reference run.
	ref := NewNetwork(&topo.Topology, scaleCfg(42))
	drive(ref, arrivals, 0)
	want := finalState(t, ref)

	// Interrupted run: stop mid-workload, checkpoint, JSON round-trip,
	// restore into a brand-new network, continue the identical driver.
	for _, cut := range []int{1, 150, 299} {
		n := NewNetwork(&topo.Topology, scaleCfg(42))
		driveUntil(n, arrivals, cut)
		driverState, _ := json.Marshal(cut)
		n2, driver := checkpointRoundTrip(t, n, driverState)
		var resumeFrom int
		if err := json.Unmarshal(driver, &resumeFrom); err != nil {
			t.Fatalf("cut %d: driver state: %v", cut, err)
		}
		drive(n2, arrivals, resumeFrom)
		got := finalState(t, n2)
		if !bytes.Equal(want, got) {
			t.Fatalf("cut %d: resumed final state differs from uninterrupted run\nwant %d bytes, got %d bytes", cut, len(want), len(got))
		}
	}
}

// TestNetsimCheckpointCarriesLoopStats: a resumed run must report the same
// LoopStats as the uninterrupted one, wall time aside. The late cuts fall
// after the run's heap peak, so a checkpoint that dropped the engine's high
// water would under-report it.
func TestNetsimCheckpointCarriesLoopStats(t *testing.T) {
	topo := topology.NewFatTree(4)
	arrivals := drawArrivals(17, 300, topo.TotalServers(), float64(20*sim.Microsecond))
	ref := NewNetwork(&topo.Topology, scaleCfg(42))
	drive(ref, arrivals, 0)
	want := ref.LoopStats()
	want.WallTime = 0
	for _, cut := range []int{1, 150, 299} {
		n := NewNetwork(&topo.Topology, scaleCfg(42))
		driveUntil(n, arrivals, cut)
		n2, _ := checkpointRoundTrip(t, n, nil)
		drive(n2, arrivals, cut)
		got := n2.LoopStats()
		got.WallTime = 0
		if got != want {
			t.Fatalf("cut %d: resumed LoopStats %+v, uninterrupted %+v", cut, got, want)
		}
	}
}

// TestNetsimCheckpointRejectsPendingArrivals: ScheduleFlow closures cannot
// be serialized; the checkpoint must refuse rather than silently drop them.
func TestNetsimCheckpointRejectsPendingArrivals(t *testing.T) {
	topo := twoRackTopo(2)
	cfg := scaleCfg(1)
	n := NewNetwork(topo, cfg)
	n.ScheduleFlow(sim.Millisecond, 0, 2, 10_000)
	if _, err := n.Checkpoint(nil); err == nil {
		t.Fatalf("checkpoint should reject pending ScheduleFlow closures")
	}
	n.Eng.Run(sim.Second)
	if _, err := n.Checkpoint(nil); err != nil {
		t.Fatalf("checkpoint after drain: %v", err)
	}

	retain := DefaultConfig()
	nr := NewNetwork(topo, retain)
	if _, err := nr.Checkpoint(nil); err == nil {
		t.Fatalf("checkpoint should require DiscardCompleted mode")
	}
}

// TestNetsimDiscardBoundsMemory: in discard mode the conn slab's high water
// tracks peak concurrency, not total flow count — the flat-memory contract.
func TestNetsimDiscardBoundsMemory(t *testing.T) {
	topo := topology.NewFatTree(4)
	servers := topo.TotalServers()
	const flows = 2000
	// Light load: big gaps keep few flows in flight at once.
	arrivals := drawArrivals(5, flows, servers, float64(80*sim.Microsecond))

	n := NewNetwork(&topo.Topology, scaleCfg(7))
	drive(n, arrivals, 0)

	if got := n.ended; got != flows {
		t.Fatalf("completed %d of %d flows", got, flows)
	}
	if len(n.Flows()) != 0 {
		t.Fatalf("discard mode retained %d flow records", len(n.Flows()))
	}
	hw := n.SlabHighWater()
	if hw >= flows/4 {
		t.Fatalf("slab high water %d not flat in flow count %d", hw, flows)
	}
	if live := n.started - n.ended; live != 0 {
		t.Fatalf("%d live flows after drain, want 0", live)
	}
	inUse := 0
	n.conns.Range(func(int32, *conn) bool { inUse++; return true })
	if inUse != 0 {
		t.Fatalf("slab occupancy %d after drain, want 0", inUse)
	}
}

// TestNetsimSketchMatchesRetained: the streaming FCT sketch must agree with
// exact percentiles over retained flows to within the sketch's relative
// accuracy, and the streaming moments must match exactly.
func TestNetsimSketchMatchesRetained(t *testing.T) {
	topo := topology.NewFatTree(4)
	servers := topo.TotalServers()
	arrivals := drawArrivals(11, 500, servers, float64(30*sim.Microsecond))

	cfg := DefaultConfig()
	cfg.Routing = HYB
	cfg.Seed = 3
	n := NewNetwork(&topo.Topology, cfg) // retain mode
	drive(n, arrivals, 0)

	var exact []float64
	for _, f := range n.Flows() {
		if !f.Done {
			t.Fatalf("flow %d incomplete", f.ID)
		}
		exact = append(exact, float64(f.FCT()))
	}
	sort.Float64s(exact)
	sk := n.FCTSketch()
	if sk.Count() != uint64(len(exact)) {
		t.Fatalf("sketch count %d != %d flows", sk.Count(), len(exact))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := sk.Quantile(q)
		want := stats.Percentile(exact, q*100)
		if relErr := math.Abs(got-want) / want; relErr > 2*stats.DefaultSketchAlpha {
			t.Fatalf("q%.2f: sketch %.0f vs exact %.0f (rel err %.4f)", q, got, want, relErr)
		}
	}
	m := n.FCTMoments()
	sum := 0.0
	for _, v := range exact {
		sum += v
	}
	if mean := sum / float64(len(exact)); math.Abs(m.Mean()-mean)/mean > 1e-9 {
		t.Fatalf("moments mean %.2f vs exact %.2f", m.Mean(), mean)
	}
}

// TestNetsimOnCompleteCallback: completion callbacks fire once per visible
// flow, before the slot recycles, with final FCT populated.
func TestNetsimOnCompleteCallback(t *testing.T) {
	topo := twoRackTopo(4)
	n := NewNetwork(topo, scaleCfg(1))
	seen := 0
	n.SetOnComplete(func(f *Flow) {
		seen++
		if !f.Done || f.EndNs < f.StartNs {
			t.Fatalf("callback flow not finalized: %+v", f)
		}
	})
	for i := 0; i < 4; i++ {
		n.StartFlow(i, 4+i, 200_000)
	}
	n.Eng.Run(5 * sim.Second)
	if seen != 4 {
		t.Fatalf("onComplete fired %d times, want 4", seen)
	}
}

// steadyState is the benchmark's cost-reduced Xpander(5,9,3) under HYB at
// a steady Poisson load (about 150 events pending, the depth of the
// benchmark's netsim legs), past a warm-up that brings slab, packet pool,
// link queues and sketch buckets to their working size, and the step that
// advances it by one arrival.
func steadyState() (n *Network, step func()) {
	topo := topology.NewXpander(5, 9, 3, rand.New(rand.NewSource(1)))
	servers := topo.TotalServers()
	n = NewNetwork(&topo.Topology, scaleCfg(42))
	rng := sim.NewRNG(7)
	at := sim.Time(0)
	step = func() {
		at += sim.Time(rng.ExpFloat64()*float64(20*sim.Microsecond)) + 1
		src := rng.Intn(servers)
		dst := rng.Intn(servers)
		if dst == src {
			dst = (dst + 1) % servers
		}
		n.Eng.Run(at)
		n.StartFlow(src, dst, int64(1_000+rng.Intn(400_000)))
	}
	for i := 0; i < 3_000; i++ {
		step()
	}
	return n, step
}

// BenchmarkNetsimSteadyState is the packet simulator's events/s row: one
// op is one arrival of steadyState (events/op says how many events that
// is). TestNetsimSteadyStateAllocs gates it at 0 allocs/op.
func BenchmarkNetsimSteadyState(b *testing.B) {
	n, step := steadyState()
	b.ReportAllocs()
	b.ResetTimer()
	start := n.Eng.Processed()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	b.ReportMetric(float64(n.Eng.Processed()-start)/float64(b.N), "events/op")
}

// TestNetsimSteadyStateAllocs is BenchmarkNetsimSteadyState's 0 allocs/op
// gate: the steady state must not allocate per arrival. The floor hides
// the amortised growth of a link's queue ring, as allocs/op does.
func TestNetsimSteadyStateAllocs(t *testing.T) {
	_, step := steadyState()
	if n := testing.AllocsPerRun(2_000, step); n != 0 {
		t.Fatalf("steady-state arrival allocates %v times, want 0", n)
	}
}

// BenchmarkNetsimScale1M pushes one million flows through a packet-level
// fat-tree in discard mode. Gated behind BEYONDFT_SCALE=1: it is the
// headline scale demonstration, not a per-commit regression gate.
func BenchmarkNetsimScale1M(b *testing.B) {
	if os.Getenv("BEYONDFT_SCALE") == "" {
		b.Skip("set BEYONDFT_SCALE=1 to run the 1M-flow packet benchmark")
	}
	topo := topology.NewFatTree(8)
	servers := topo.TotalServers()
	const flows = 1_000_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := NewNetwork(&topo.Topology, scaleCfg(42))
		rng := sim.NewRNG(99)
		at := sim.Time(0)
		for j := 0; j < flows; j++ {
			at += sim.Time(rng.ExpFloat64()*float64(2*sim.Microsecond)) + 1
			src := rng.Intn(servers)
			dst := rng.Intn(servers)
			if dst == src {
				dst = (dst + 1) % servers
			}
			n.Eng.Run(at)
			n.StartFlow(src, dst, int64(1_000+rng.Intn(100_000)))
		}
		n.Eng.Run(at + 60*sim.Second)
		if got := n.ended; got != flows {
			b.Fatalf("completed %d of %d", got, flows)
		}
		b.ReportMetric(float64(n.SlabHighWater()), "slab-high-water")
	}
}
