// Package beyondft's root benchmark harness: one benchmark per table and
// figure of the paper (regenerating its rows at the laptop-scale
// configuration; see EXPERIMENTS.md for paper-vs-measured), plus ablation
// benchmarks for the design choices called out in DESIGN.md §5.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Print the regenerated rows while benchmarking:
//
//	BEYONDFT_PRINT=1 go test -bench=Figure -benchtime 1x
package beyondft

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"beyondft/internal/experiments"
	"beyondft/internal/flowsim"
	"beyondft/internal/fluid"
	"beyondft/internal/harness"
	"beyondft/internal/netsim"
	"beyondft/internal/sim"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
	"beyondft/internal/workload"
)

var printFigures = os.Getenv("BEYONDFT_PRINT") != ""

func emit(b *testing.B, figs ...*experiments.Figure) {
	b.Helper()
	for _, f := range figs {
		if len(f.Series) == 0 {
			b.Fatalf("figure %s has no series", f.ID)
		}
		for _, s := range f.Series {
			if len(s.Y) != len(s.X) {
				b.Fatalf("figure %s series %s: %d x vs %d y", f.ID, s.Label, len(s.X), len(s.Y))
			}
		}
		if printFigures {
			f.Fprint(os.Stdout)
		}
	}
}

func cfg() experiments.Config { return experiments.DefaultConfig() }

// --- Table and figure regenerators --------------------------------------

func BenchmarkTable1CostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, experiments.Table1CostModel())
	}
}

func BenchmarkObservation1FatTreeInflexibility(b *testing.B) {
	// Observation 1 / Fig. 1: exact LP shows the oversubscribed fat-tree is
	// capped at its oversubscription for a 2/k-fraction pod-to-pod TM.
	for i := 0; i < b.N; i++ {
		half := topology.NewFatTreeOversubscribed(4, 1)
		m := &tm.TM{Name: "pod-to-pod"}
		for e := 0; e < 2; e++ {
			m.Demands = append(m.Demands, tm.Demand{Src: half.EdgeBase[0] + e, Dst: half.EdgeBase[1] + e, Amount: 2})
		}
		v, err := fluid.ThroughputExact(half.G, m)
		if err != nil {
			b.Fatal(err)
		}
		if v > 0.5001 || v < 0.4999 {
			b.Fatalf("throughput = %v, want 0.5", v)
		}
	}
}

func BenchmarkFigure2ThroughputProportionality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, experiments.Figure2TP())
	}
}

func BenchmarkFigure3XpanderStructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure3Xpander())
	}
}

func BenchmarkFigure4ToyExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure4Toy())
	}
}

func BenchmarkFigure5aSlimFly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure5a())
	}
}

func BenchmarkFigure5bLonghop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure5b())
	}
}

func BenchmarkFigure5AltEqualCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure5Alt())
	}
}

func BenchmarkFigure6aOversubscribedJellyfish(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure6a())
	}
}

func BenchmarkFigure6bScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure6b())
	}
}

func BenchmarkFigure7bAdjacentRacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure7b()...)
	}
}

func BenchmarkFigure7cAllToAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure7c()...)
	}
}

func BenchmarkFigure8FlowSizeCDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, experiments.Figure8FlowSizes())
	}
}

func BenchmarkFigure9A2ASweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure9()...)
	}
}

func BenchmarkFigure10PermuteSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure10()...)
	}
}

func BenchmarkFigure11PermuteLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure11()...)
	}
}

func BenchmarkFigure12ParetoHull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure12()...)
	}
}

func BenchmarkFigure13ProjecToR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure13()...)
	}
}

func BenchmarkFigure14Skew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure14()...)
	}
}

func BenchmarkFigure15LargeScaleSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().Figure15()...)
	}
}

// --- Extension experiments (DESIGN.md: optional/future-work features) ----

func BenchmarkExtensionRotorNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().ExtensionRotorNet()...)
	}
}

func BenchmarkExtensionFailureResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, cfg().ExtensionFailureResilience())
	}
}

// --- Harness benchmarks ---------------------------------------------------

// BenchmarkHarnessFigure2 measures the experiment harness's parallel
// speedup on a registry of CPU-bound Figure-2 jobs: the same job set
// executed with a single worker (serial, `beyondft run -j 1`)
// and with one worker per CPU. Each job regenerates the Fig. 2 curves many
// times so per-job work dwarfs pool scheduling overhead, as in the real
// packet-sim jobs.
func BenchmarkHarnessFigure2(b *testing.B) {
	mkJobs := func() []harness.Job {
		n := 2 * runtime.GOMAXPROCS(0)
		jobs := make([]harness.Job, n)
		for i := range jobs {
			name := fmt.Sprintf("fig2-rep%d", i)
			jobs[i] = harness.Job{
				Name: name,
				Spec: "{}",
				Run: func(ctx context.Context) (any, error) {
					var f *experiments.Figure
					for rep := 0; rep < 400; rep++ {
						f = experiments.Figure2TP()
					}
					return &experiments.JobResult{Figures: []*experiments.Figure{f}}, nil
				},
			}
		}
		return jobs
	}
	run := func(b *testing.B, workers int) {
		jobs := mkJobs()
		for i := 0; i < b.N; i++ {
			rep, err := harness.Run(context.Background(), jobs, harness.Options{Workers: workers})
			if err != nil || rep.Errors != 0 {
				b.Fatalf("harness run: %v, errors=%d", err, rep.Errors)
			}
		}
	}
	// On a single-CPU host the parallel leg still runs 2 workers so the
	// concurrent pool path is exercised (and the sub-benchmark names stay
	// distinct); the speedup only shows on multi-core machines.
	par := runtime.GOMAXPROCS(0)
	if par < 2 {
		par = 2
	}
	b.Run("j1", func(b *testing.B) { run(b, 1) })
	b.Run(fmt.Sprintf("j%d", par), func(b *testing.B) { run(b, par) })
}

// --- Micro-benchmarks of the substrates ----------------------------------

func BenchmarkEventEngine(b *testing.B) {
	e := sim.NewEngine()
	nop := func(any) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SchedulePacket(e.Now()+sim.Time(i%1000), nop, nil)
		if e.Pending() > 1024 {
			e.Run(e.Now() + 1000)
		}
	}
	e.RunAll()
}

func BenchmarkPacketSimulator(b *testing.B) {
	// Steady-state event throughput of the full DCTCP+HYB stack on the
	// cost-reduced Xpander.
	rng := rand.New(rand.NewSource(1))
	topo := topology.NewXpander(5, 9, 3, rng)
	cfgN := netsim.DefaultConfig()
	cfgN.Routing = netsim.HYB
	n := netsim.NewNetwork(&topo.Topology, cfgN)
	for f := 0; f < 200; f++ {
		src, dst := rng.Intn(162), rng.Intn(162)
		if src == dst {
			continue
		}
		n.ScheduleFlow(sim.Time(rng.Intn(10))*sim.Millisecond, src, dst, 2_000_000)
	}
	b.ResetTimer()
	done := uint64(0)
	for done < uint64(b.N) {
		prev := n.Eng.Processed()
		n.Eng.Run(n.Eng.Now() + sim.Millisecond)
		ran := n.Eng.Processed() - prev
		if ran == 0 {
			b.StopTimer()
			return
		}
		done += ran
	}
	b.ReportMetric(float64(done)/float64(b.N), "events/op")
}

func BenchmarkFlowLevelSimulator(b *testing.B) {
	// Paper-scale fat-tree (1024 servers) under a 20K flows/s Poisson load
	// for 50 ms of simulated traffic — the flow-level engine's headline:
	// paper-scale sweeps in about a second.
	for i := 0; i < b.N; i++ {
		ft := topology.NewFatTree(16)
		n := flowsim.NewNetwork(&ft.Topology, flowsim.DefaultConfig())
		rng := rand.New(rand.NewSource(11))
		at := sim.Time(0)
		for at < 50*sim.Millisecond {
			at += sim.Time(rng.ExpFloat64() / 20000 * float64(sim.Second))
			src, dst := rng.Intn(1024), rng.Intn(1024)
			if src/8 == dst/8 {
				continue
			}
			n.ScheduleFlow(at, src, dst, int64(10_000+rng.Intn(3_000_000)))
		}
		n.Run(2 * sim.Second)
	}
}

func BenchmarkGKMaxConcurrentFlow(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	sf := topology.NewSlimFly(5, 6)
	racks := workload.ActiveRacks(&sf.Topology, 0.5, false, rng)
	m := tm.LongestMatching(sf.G, racks, func(int) int { return 6 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := fluid.Throughput(sf.G, m, fluid.GKOptions{Epsilon: 0.1}); v <= 0 {
			b.Fatalf("zero throughput")
		}
	}
}

func BenchmarkTopologyConstruction(b *testing.B) {
	b.Run("fattree-k16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topology.NewFatTree(16)
		}
	})
	b.Run("xpander-216", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < b.N; i++ {
			topology.NewXpander(11, 18, 5, rng)
		}
	})
	b.Run("jellyfish-216", func(b *testing.B) {
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < b.N; i++ {
			topology.NewJellyfish(216, 11, 5, rng)
		}
	})
	b.Run("slimfly-q17", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topology.NewSlimFly(17, 24)
		}
	})
	b.Run("longhop-512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topology.NewLonghop(9, 10, 8)
		}
	})
}

// --- Ablation benchmarks (DESIGN.md §5) ----------------------------------

// BenchmarkAblationClosureVsPacketEvents prices the engine's two event
// flavours on the same hold model (160 pending hops, each handler
// scheduling its successor 1–10 µs ahead): "closure" builds a fresh func()
// around the hop for every event, as a per-packet closure would; "packet"
// passes the hop as the argument of one pre-bound handler and allocates
// nothing.
func BenchmarkAblationClosureVsPacketEvents(b *testing.B) {
	type hop struct{ visits int }
	const depth = 160
	run := func(b *testing.B, arm func(e *sim.Engine, rng *sim.RNG) func(at sim.Time, h *hop)) {
		e := sim.NewEngine()
		rng := sim.NewRNG(1)
		schedule := arm(e, rng)
		for i := 0; i < depth; i++ {
			schedule(sim.Time(1+rng.Intn(10_000)), &hop{})
		}
		e.Run(100_000)
		b.ReportAllocs()
		b.ResetTimer()
		target := e.Processed() + uint64(b.N)
		for e.Processed() < target {
			e.Run(e.Now() + 1_000)
		}
	}
	b.Run("closure", func(b *testing.B) {
		run(b, func(e *sim.Engine, rng *sim.RNG) func(sim.Time, *hop) {
			var schedule func(at sim.Time, h *hop)
			schedule = func(at sim.Time, h *hop) {
				e.Schedule(at, func() {
					h.visits++
					schedule(e.Now()+sim.Time(1+rng.Intn(10_000)), h)
				})
			}
			return schedule
		})
	})
	b.Run("packet", func(b *testing.B) {
		run(b, func(e *sim.Engine, rng *sim.RNG) func(sim.Time, *hop) {
			var onHop func(any)
			onHop = func(arg any) {
				h := arg.(*hop)
				h.visits++
				e.SchedulePacket(e.Now()+sim.Time(1+rng.Intn(10_000)), onHop, h)
			}
			return func(at sim.Time, h *hop) { e.SchedulePacket(at, onHop, h) }
		})
	})
}

// BenchmarkAblationFlowletVsPerPacket quantifies what per-flowlet (vs
// per-packet) path selection buys: per-packet ECMP reorders constantly,
// triggering spurious go-back-N retransmissions.
func BenchmarkAblationFlowletVsPerPacket(b *testing.B) {
	run := func(b *testing.B, gapNs int64) float64 {
		var last float64
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(9))
			topo := topology.NewXpander(5, 9, 3, rng)
			cfgN := netsim.DefaultConfig()
			cfgN.Routing = ECMPScheme()
			cfgN.FlowletGapNs = gapNs
			n := netsim.NewNetwork(&topo.Topology, cfgN)
			f := n.StartFlow(0, 30, 5_000_000)
			n.Eng.Run(2 * sim.Second)
			if !f.Done {
				b.Fatalf("flow incomplete")
			}
			last = float64(f.FCT()) / 1e6
		}
		return last
	}
	b.Run("flowlet-50us", func(b *testing.B) {
		ms := run(b, 50_000)
		b.ReportMetric(ms, "fct-ms")
	})
	b.Run("per-packet", func(b *testing.B) {
		ms := run(b, 0) // every packet is its own flowlet
		b.ReportMetric(ms, "fct-ms")
	})
}

// ECMPScheme avoids an import cycle lint for the ablation above.
func ECMPScheme() netsim.RoutingScheme { return netsim.ECMP }

// BenchmarkAblationHybVsHybCA compares the shipped Q-threshold hybrid (HYB)
// with the congestion-aware hybrid §6.3 describes first (HYBCA) on the HYB
// scheme's own worst case: voluminous "short" flows saturating an
// adjacent-rack ECMP bottleneck, where only the congestion-aware trigger
// reroutes (the limitation §6.3 explicitly acknowledges).
func BenchmarkAblationHybVsHybCA(b *testing.B) {
	run := func(b *testing.B, r netsim.RoutingScheme) float64 {
		var lastMs float64
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(17))
			topo := topology.NewXpander(5, 9, 3, rng)
			cfgN := netsim.DefaultConfig()
			cfgN.Routing = r
			n := netsim.NewNetwork(&topo.Topology, cfgN)
			// Many sub-Q flows between two adjacent racks: HYB never leaves
			// ECMP; HYBCA escapes once marks accumulate.
			neighbor := topo.G.Neighbors(0)[0]
			srcBase := 0
			dstBase := neighbor * 3
			for f := 0; f < 60; f++ {
				n.ScheduleFlow(sim.Time(f)*50*sim.Microsecond,
					srcBase+f%3, dstBase+f%3, 90_000) // just under Q=100KB
			}
			n.Eng.Run(10 * sim.Second)
			total := 0.0
			cnt := 0
			for _, f := range n.Flows() {
				if !f.Done {
					b.Fatalf("%v flow incomplete", r)
				}
				total += float64(f.FCT()) / 1e6
				cnt++
			}
			lastMs = total / float64(cnt)
		}
		return lastMs
	}
	b.Run("hyb", func(b *testing.B) { b.ReportMetric(run(b, netsim.HYB), "avg-fct-ms") })
	b.Run("hyb-ca", func(b *testing.B) { b.ReportMetric(run(b, netsim.HYBCA), "avg-fct-ms") })
}

// BenchmarkAblationGKEpsilon shows the FPTAS accuracy/time trade-off.
func BenchmarkAblationGKEpsilon(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	jf := topology.NewJellyfish(50, 7, 6, rng)
	racks := workload.ActiveRacks(jf, 0.6, false, rng)
	m := tm.LongestMatching(jf.G, racks, func(int) int { return 6 })
	for _, eps := range []float64{0.20, 0.10, 0.05} {
		eps := eps
		b.Run(benchName(eps), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = fluid.Throughput(jf.G, m, fluid.GKOptions{Epsilon: eps})
			}
			b.ReportMetric(v, "throughput")
		})
	}
}

func benchName(eps float64) string {
	switch {
	case eps >= 0.2:
		return "eps-0.20"
	case eps >= 0.1:
		return "eps-0.10"
	default:
		return "eps-0.05"
	}
}

// BenchmarkAblationECNThreshold sweeps DCTCP's marking threshold: too low
// wastes throughput, too high defeats the low-latency goal.
func BenchmarkAblationECNThreshold(b *testing.B) {
	for _, th := range []int{5, 20, 80} {
		th := th
		b.Run(map[int]string{5: "K-5", 20: "K-20", 80: "K-80"}[th], func(b *testing.B) {
			var fctMs float64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(6))
				topo := topology.NewXpander(5, 9, 3, rng)
				cfgN := netsim.DefaultConfig()
				cfgN.ECNThresholdPackets = th
				n := netsim.NewNetwork(&topo.Topology, cfgN)
				for j := 0; j < 8; j++ {
					n.StartFlow(j, 80+j, 1_000_000)
				}
				n.Eng.Run(2 * sim.Second)
				total := 0.0
				for _, f := range n.Flows() {
					if !f.Done {
						b.Fatalf("flow incomplete at K=%d", th)
					}
					total += float64(f.FCT()) / 1e6
				}
				fctMs = total / 8
			}
			b.ReportMetric(fctMs, "avg-fct-ms")
		})
	}
}
