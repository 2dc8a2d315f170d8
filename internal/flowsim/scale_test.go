package flowsim

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"beyondft/internal/sim"
	"beyondft/internal/stats"
	"beyondft/internal/topology"
)

// driveWorkload pushes a deterministic Poisson-ish workload through n,
// feeding arrivals lazily (schedule one, run to its instant) so the pending
// heap stays small — the pattern the scale drivers use. Returns final
// sketch bytes plus counters for identity comparison.
func driveWorkload(n *Network, flows int, seed int64) ([]byte, int64, int64) {
	rng := sim.NewRNG(seed)
	total := n.Topo.TotalServers()
	at := sim.Time(0)
	for i := 0; i < flows; i++ {
		at += sim.Time(rng.ExpFloat64()*float64(50*sim.Microsecond)) + 1
		src := rng.Intn(total)
		dst := rng.Intn(total)
		if dst == src {
			dst = (dst + 1) % total
		}
		n.ScheduleFlow(at, src, dst, int64(1_000+rng.Intn(2_000_000)))
		n.Run(at)
	}
	n.Run(at + 10*sim.Second)
	data, err := json.Marshal(n.FCTSketch())
	if err != nil {
		panic(err)
	}
	return data, n.Started(), n.Completed()
}

// TestShardCountInvariance is the acceptance gate: the same seed must
// produce byte-identical statistics at shard counts 1, 2 and 8, in both
// retain and discard modes.
func TestShardCountInvariance(t *testing.T) {
	topo := topology.NewFatTree(4)
	for _, discard := range []bool{false, true} {
		var ref []byte
		var refStarted, refCompleted int64
		for _, shards := range []int{1, 2, 8} {
			cfg := DefaultConfig()
			cfg.Routing = HYB
			cfg.Seed = 42
			cfg.Shards = shards
			cfg.DiscardCompleted = discard
			n := NewNetwork(&topo.Topology, cfg)
			sketch, started, completed := driveWorkload(n, 400, 17)
			n.Close()
			if shards == 1 {
				ref, refStarted, refCompleted = sketch, started, completed
				if completed != started {
					t.Fatalf("discard=%v: %d of %d flows completed", discard, completed, started)
				}
				continue
			}
			if started != refStarted || completed != refCompleted {
				t.Fatalf("discard=%v shards=%d: counts %d/%d vs serial %d/%d",
					discard, shards, started, completed, refStarted, refCompleted)
			}
			if !bytes.Equal(sketch, ref) {
				t.Fatalf("discard=%v shards=%d: sketch differs from serial run\n got %s\nwant %s",
					discard, shards, sketch, ref)
			}
		}
	}
}

// TestShardedFlowRecordsMatchSerial compares every retained flow record —
// start, end, path length — between serial and 8-shard runs.
func TestShardedFlowRecordsMatchSerial(t *testing.T) {
	topo := topology.NewFatTree(4)
	run := func(shards int) []flowFingerprint {
		cfg := DefaultConfig()
		cfg.Routing = HYB
		cfg.Seed = 3
		cfg.Shards = shards
		n := NewNetwork(&topo.Topology, cfg)
		defer n.Close()
		driveWorkload(n, 300, 9)
		out := make([]flowFingerprint, 0, len(n.Flows()))
		for _, f := range n.Flows() {
			out = append(out, flowFingerprint{f.ID, f.SrcServer, f.DstServer, f.StartNs, f.EndNs, f.Done})
		}
		return out
	}
	want := run(1)
	got := run(8)
	if len(got) != len(want) {
		t.Fatalf("flow counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("flow %d: sharded %+v vs serial %+v", i, got[i], want[i])
		}
	}
}

// TestCheckpointResumeByteIdentical halts a discard-mode run mid-flight,
// snapshots it through JSON, restores into a fresh network (at a different
// shard count) and requires the continuation to match the uninterrupted
// run byte for byte.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	checkResume(t, func(cp []byte) []byte { return cp })
}

// TestCheckpointWithDroppedFieldsResumes: a version-1 checkpoint written
// while the network still kept FCT moments and event-loop counters carries
// them as four more fields; it decodes, and resumes to the same bytes.
func TestCheckpointWithDroppedFieldsResumes(t *testing.T) {
	checkResume(t, func(cp []byte) []byte {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(cp, &fields); err != nil {
			t.Fatal(err)
		}
		fields["moments"] = json.RawMessage(`{"n":150,"sum":121851825,"min":2100,"max":9100000,"mean":812345.5,"m2":1.5e12}`)
		fields["loop_events"] = json.RawMessage(`431`)
		fields["alloc_rounds"] = json.RawMessage(`298`)
		fields["heap_high_water"] = json.RawMessage(`1`)
		old, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		return old
	})
}

// checkResume is TestCheckpointResumeByteIdentical with edit applied to the
// checkpoint's JSON before it is restored.
func checkResume(t *testing.T, edit func(cp []byte) []byte) {
	t.Helper()
	topo := topology.NewFatTree(4)
	const flows = 300
	mkCfg := func(shards int) Config {
		cfg := DefaultConfig()
		cfg.Routing = HYB
		cfg.Seed = 5
		cfg.Shards = shards
		cfg.DiscardCompleted = true
		return cfg
	}

	// Reference: uninterrupted serial run.
	refNet := NewNetwork(&topo.Topology, mkCfg(1))
	ref, refStarted, refCompleted := driveWorkload(refNet, flows, 23)

	// Interrupted run: drive half the arrivals, checkpoint, restore, finish.
	// The driver RNG state rides along in the opaque Driver blob.
	n1 := NewNetwork(&topo.Topology, mkCfg(2))
	rng := sim.NewRNG(23)
	total := topo.TotalServers()
	at := sim.Time(0)
	feed := func(n *Network, rng *sim.RNG, at sim.Time, count int) sim.Time {
		for i := 0; i < count; i++ {
			at += sim.Time(rng.ExpFloat64()*float64(50*sim.Microsecond)) + 1
			src := rng.Intn(total)
			dst := rng.Intn(total)
			if dst == src {
				dst = (dst + 1) % total
			}
			n.ScheduleFlow(at, src, dst, int64(1_000+rng.Intn(2_000_000)))
			n.Run(at)
		}
		return at
	}
	at = feed(n1, rng, at, flows/2)
	type driverState struct {
		RNG sim.RNG  `json:"rng"`
		At  sim.Time `json:"at"`
	}
	dblob, err := json.Marshal(driverState{RNG: *rng, At: at})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := n1.Checkpoint(dblob)
	if err != nil {
		t.Fatal(err)
	}
	n1.Close()
	// Serialize the whole checkpoint through JSON, as the cache would.
	cpBytes, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var cp2 Checkpoint
	if err := json.Unmarshal(edit(cpBytes), &cp2); err != nil {
		t.Fatal(err)
	}

	n2 := NewNetwork(&topo.Topology, mkCfg(8))
	defer n2.Close()
	if err := n2.Restore(&cp2); err != nil {
		t.Fatal(err)
	}
	var ds driverState
	if err := json.Unmarshal(cp2.Driver, &ds); err != nil {
		t.Fatal(err)
	}
	rng2 := ds.RNG
	at2 := feed(n2, &rng2, ds.At, flows-flows/2)
	n2.Run(at2 + 10*sim.Second)

	got, err := json.Marshal(n2.FCTSketch())
	if err != nil {
		t.Fatal(err)
	}
	if n2.Started() != refStarted || n2.Completed() != refCompleted {
		t.Fatalf("resumed counts %d/%d vs reference %d/%d", n2.Started(), n2.Completed(), refStarted, refCompleted)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("resumed sketch differs from uninterrupted run:\n got %s\nwant %s", got, ref)
	}
}

// TestCheckpointRequiresDiscardMode pins the mode guard.
func TestCheckpointRequiresDiscardMode(t *testing.T) {
	topo := topology.NewFatTree(4)
	n := NewNetwork(&topo.Topology, DefaultConfig())
	if _, err := n.Checkpoint(nil); err == nil {
		t.Fatal("checkpoint in retain mode should error")
	}
	cfg := DefaultConfig()
	cfg.DiscardCompleted = true
	cfg.LinkRateGbps = 40 // shape mismatch vs. the checkpoint below
	n2 := NewNetwork(&topo.Topology, cfg)
	cp, err := n2.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	cp.Cfg.LinkRateGbps = 10
	if err := n2.Restore(cp); err == nil {
		t.Fatal("restore with mismatched config should error")
	}
}

// TestSketchMatchesRetainedFCTs: at small scale, the streaming sketch's
// quantiles must agree with the exact quantiles over retained FCTs within
// the sketch's declared relative accuracy.
func TestSketchMatchesRetainedFCTs(t *testing.T) {
	topo := topology.NewFatTree(4)
	cfg := DefaultConfig()
	cfg.Seed = 2
	n := NewNetwork(&topo.Topology, cfg)
	driveWorkload(n, 500, 31)
	var fcts []float64
	for _, f := range n.Flows() {
		if !f.Done {
			t.Fatal("flow incomplete")
		}
		fcts = append(fcts, float64(f.FCT()))
	}
	sk := n.FCTSketch()
	if sk.Count() != uint64(len(fcts)) {
		t.Fatalf("sketch count %d, want %d", sk.Count(), len(fcts))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := stats.Percentile(fcts, q*100)
		est := sk.Quantile(q)
		if math.Abs(est-exact) > 2*stats.DefaultSketchAlpha*exact {
			t.Fatalf("q=%v: sketch %v vs exact %v outside 2*alpha", q, est, exact)
		}
	}
	if sk.Min() != slices.Min(fcts) || sk.Max() != slices.Max(fcts) {
		t.Fatalf("sketch extremes %v/%v vs exact %v/%v", sk.Min(), sk.Max(), slices.Min(fcts), slices.Max(fcts))
	}
}

// TestDiscardModeBoundsMemory runs 50k flows at bounded concurrency: the
// slab high water must track peak concurrency, not total flows.
func TestDiscardModeBoundsMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-flow churn run")
	}
	topo := topology.NewFatTree(4)
	cfg := DefaultConfig()
	cfg.DiscardCompleted = true
	n := NewNetwork(&topo.Topology, cfg)
	// Light load (small flows, ~8% offered) so concurrency — and hence the
	// expected high water — stays small while 50k flows churn through.
	rng := sim.NewRNG(41)
	total := topo.TotalServers()
	at := sim.Time(0)
	for i := 0; i < 50_000; i++ {
		at += sim.Time(rng.ExpFloat64()*float64(20*sim.Microsecond)) + 1
		src := rng.Intn(total)
		dst := rng.Intn(total)
		if dst == src {
			dst = (dst + 1) % total
		}
		n.ScheduleFlow(at, src, dst, int64(1_000+rng.Intn(100_000)))
		n.Run(at)
	}
	n.Run(at + 10*sim.Second)
	if n.Completed() != n.Started() {
		t.Fatalf("%d of %d flows completed", n.Completed(), n.Started())
	}
	if hw := n.SlabHighWater(); hw > 1_000 {
		t.Fatalf("slab high water %d for 50k flows — memory not flat in flow count", hw)
	}
	if live := n.ActiveFlows(); live != 0 {
		t.Fatalf("%d live flows after drain, want 0", live)
	}
	occ := 0
	n.flowSlab.Range(func(int32, *Flow) bool { occ++; return true })
	if occ != 0 {
		t.Fatalf("slab occupancy %d after drain, want 0", occ)
	}
}

// steadyState is a loaded fat-tree past a warm-up that brings it to steady
// concurrency, and the step that advances it by one arrival.
func steadyState() (n *Network, step func()) {
	topo := topology.NewFatTree(8)
	cfg := DefaultConfig()
	cfg.DiscardCompleted = true
	n = NewNetwork(&topo.Topology, cfg)
	rng := sim.NewRNG(7)
	total := topo.TotalServers()
	at := sim.Time(0)
	step = func() {
		at += sim.Time(rng.ExpFloat64()*float64(20*sim.Microsecond)) + 1
		src := rng.Intn(total)
		dst := rng.Intn(total)
		if dst == src {
			dst = (dst + 1) % total
		}
		n.ScheduleFlow(at, src, dst, int64(1_000+rng.Intn(500_000)))
		n.Run(at)
	}
	for i := 0; i < 2_000; i++ {
		step()
	}
	return n, step
}

// BenchmarkFlowsimSteadyState times one arrival of steadyState; one op is
// one step. TestFlowsimSteadyStateAllocs gates it at 0 allocs/op.
func BenchmarkFlowsimSteadyState(b *testing.B) {
	n, step := steadyState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	b.ReportMetric(float64(n.SlabHighWater()), "slab-highwater")
}

// TestFlowsimSteadyStateAllocs is BenchmarkFlowsimSteadyState's 0 allocs/op
// gate: the steady state must not allocate per arrival (slab slots, path
// buffers and allocator scratch all recycle).
func TestFlowsimSteadyStateAllocs(t *testing.T) {
	_, step := steadyState()
	if n := testing.AllocsPerRun(2_000, step); n != 0 {
		t.Fatalf("steady-state arrival allocates %v times, want 0", n)
	}
}

// BenchmarkFlowsimScale10M is the tentpole scale run: ten million flows
// through the flow-level simulator with memory flat in flow count. Gated
// behind BEYONDFT_SCALE=1 because it runs for minutes.
func BenchmarkFlowsimScale10M(b *testing.B) {
	if os.Getenv("BEYONDFT_SCALE") == "" {
		b.Skip("set BEYONDFT_SCALE=1 to run the 10M-flow benchmark")
	}
	const flows = 10_000_000
	topo := topology.NewFatTree(8)
	cfg := DefaultConfig()
	cfg.DiscardCompleted = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := NewNetwork(&topo.Topology, cfg)
		rng := sim.NewRNG(1)
		total := topo.TotalServers()
		at := sim.Time(0)
		for j := 0; j < flows; j++ {
			at += sim.Time(rng.ExpFloat64()*float64(2*sim.Microsecond)) + 1
			src := rng.Intn(total)
			dst := rng.Intn(total)
			if dst == src {
				dst = (dst + 1) % total
			}
			n.ScheduleFlow(at, src, dst, int64(1_000+rng.Intn(100_000)))
			n.Run(at)
		}
		n.Run(at + 10*sim.Second)
		if n.Completed() != flows {
			b.Fatalf("%d of %d flows completed", n.Completed(), flows)
		}
		b.ReportMetric(float64(n.SlabHighWater()), "slab-highwater")
		b.ReportMetric(float64(n.FCTSketch().Quantile(0.99)), "p99-fct-ns")
		b.ReportMetric(heapAllocMB(), "heap-MB")
	}
}

// heapAllocMB samples the live heap in MiB for scale-benchmark metrics.
func heapAllocMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
