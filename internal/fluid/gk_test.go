package fluid

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"beyondft/internal/tm"
)

// gkTestInstance builds a small random connected instance with a handful of
// commodities (several sharing a source, to exercise the distinct-source
// dual-bound fan-out).
func gkTestInstance(seed int64) (*Network, []Commodity) {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(8)
	g := randomConnectedGraph(n, n, rng)
	nw := NewNetwork(g, 1.0)
	var comms []Commodity
	for i := 0; i < 2+rng.Intn(4); i++ {
		src := rng.Intn(n)
		for k := 0; k < 1+rng.Intn(3); k++ {
			dst := rng.Intn(n)
			if dst == src {
				continue
			}
			comms = append(comms, Commodity{Src: src, Dst: dst, Demand: 0.5 + 2*rng.Float64()})
		}
	}
	return nw, comms
}

// TestGKIncrementalDMatchesRescan checks, at every phase boundary, that the
// incrementally maintained D(l) = Σ cap·length never drifts measurably from
// a full rescan over the arcs.
func TestGKIncrementalDMatchesRescan(t *testing.T) {
	checks := 0
	var nw *Network
	gkDebugBoundary = func(incremental float64, length []float64) {
		checks++
		rescan := 0.0
		for i, a := range nw.Arcs {
			rescan += a.Cap * length[i]
		}
		diff := math.Abs(incremental - rescan)
		if rescan > 0 {
			diff /= rescan
		}
		if diff > 1e-9 {
			t.Fatalf("incremental D(l) drifted: %v vs rescan %v (rel %g)", incremental, rescan, diff)
		}
	}
	defer func() { gkDebugBoundary = nil }()

	for seed := int64(0); seed < 10; seed++ {
		var comms []Commodity
		nw, comms = gkTestInstance(seed)
		if len(comms) == 0 {
			continue
		}
		res := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.05})
		if res.Throughput <= 0 {
			t.Fatalf("seed %d: zero throughput", seed)
		}
	}
	if checks < 100 {
		t.Fatalf("too few phase-boundary checks ran (%d); instances too small?", checks)
	}
}

// TestGKDeterministicAcrossWorkers asserts bit-identical results at worker
// counts 1, 2, and NumCPU: the parallel dual-bound distances must not change
// the solve trajectory.
func TestGKDeterministicAcrossWorkers(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		nw, comms := gkTestInstance(seed)
		if len(comms) == 0 {
			continue
		}
		var want GKResult
		for i, workers := range []int{1, 2, runtime.NumCPU()} {
			got := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.05, Workers: workers})
			if i == 0 {
				want = got
				continue
			}
			if got.Throughput != want.Throughput || got.UpperBound != want.UpperBound || got.Phases != want.Phases {
				t.Fatalf("seed %d: result differs at %d workers:\n got %+v\nwant %+v", seed, workers, got, want)
			}
		}
	}
}

// TestSPDijkstraEarlyTermination checks that a target-limited Dijkstra
// settles the target at its true distance with a valid parent chain.
func TestSPDijkstraEarlyTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(20)
		g := randomConnectedGraph(n, n, rng)
		nw := NewNetwork(g, 1.0)
		length := make([]float64, len(nw.Arcs))
		for i := range length {
			length[i] = 0.1 + rng.Float64()
		}
		sp := newSPState(nw)
		src := rng.Intn(n)
		fullDist := append([]float64(nil), sp.dijkstra(src, length, nil, -1)...)
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			d := sp.dijkstra(src, length, nil, dst)
			parent := sp.parent
			if math.Abs(d[dst]-fullDist[dst]) > 1e-12 {
				t.Fatalf("trial %d: early-stop dist(%d,%d) = %v, full = %v", trial, src, dst, d[dst], fullDist[dst])
			}
			// Walk the parent chain back to src, summing arc lengths.
			sum := 0.0
			hops := 0
			for v := dst; v != src; {
				ai := int(parent[v])
				if ai < 0 {
					t.Fatalf("trial %d: broken parent chain at %d", trial, v)
				}
				sum += length[ai]
				v = nw.Arcs[ai].From
				if hops++; hops > n {
					t.Fatalf("trial %d: parent chain cycles", trial)
				}
			}
			if math.Abs(sum-fullDist[dst]) > 1e-9 {
				t.Fatalf("trial %d: parent-chain length %v != dist %v", trial, sum, fullDist[dst])
			}
		}
	}
}

// TestThroughputSanityAfterHotPathRewrite re-anchors the solver against the
// exact LP on a longest-matching TM (the paper's workhorse input) after the
// incremental-D/early-termination rewrite.
func TestThroughputSanityAfterHotPathRewrite(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnectedGraph(8, 8, rng)
	racks := []int{0, 1, 2, 3, 4, 5}
	m := tm.LongestMatching(g, racks, func(int) int { return 2 })
	nw := NewNetwork(g, 1.0)
	comms := Commodities(m)
	exact, err := MaxConcurrentFlowExact(nw, comms)
	if err != nil {
		t.Fatal(err)
	}
	res := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.03})
	if res.Throughput > exact+1e-6 || res.Throughput < 0.9*exact {
		t.Fatalf("GK %.5f vs exact %.5f outside [0.9·exact, exact]", res.Throughput, exact)
	}
}

// TestGKContextCancellation checks the serving-path contract: a canceled
// context stops the solver at the next phase boundary, and the partial
// result it returns is still a feasible lower bound on the converged one.
func TestGKContextCancellation(t *testing.T) {
	nw, comms := gkTestInstance(21)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first phase: solver must route nothing
	res := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.05, Ctx: ctx})
	if res.Phases != 0 || res.Throughput != 0 {
		t.Fatalf("pre-canceled solve ran: %+v", res)
	}

	// Cancel mid-solve (from the debug hook, which fires once per phase):
	// the solver stops early and its partial primal never exceeds the
	// converged run's certified optimum bound.
	full := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.05})
	if full.Phases < 4 {
		t.Skipf("instance converged in %d phases; too fast to cancel mid-solve", full.Phases)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	fired := 0
	gkDebugBoundary = func(float64, []float64) {
		fired++
		if fired == 2 {
			cancel2()
		}
	}
	defer func() { gkDebugBoundary = nil }()
	partial := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.05, Ctx: ctx2})
	if partial.Phases != 2 {
		t.Fatalf("canceled after 2 phases, solver ran %d", partial.Phases)
	}
	if partial.Throughput > full.UpperBound+1e-9 {
		t.Fatalf("partial %.6f exceeds dual bound %.6f", partial.Throughput, full.UpperBound)
	}
}

// TestGKAllocationsIndependentOfSources gates a solve's allocation count at
// one constant on instances that differ only in how many distinct sources
// and destinations their 48 commodities have: the dual-bound sweep keeps one
// distance per commodity and one closure per solve, and a solve without a
// Workspace borrows its arrays — the potential table, a row per
// destination, among them — from pools, so neither sources, destinations
// nor phases cost anything (1 at each, the sweep's bound method; with a
// distance row per source and a closure per phase the same solves took 66
// and 157, with arrays of their own 24). On a Workspace, whose tables come
// back to it whatever the pools do (under the race detector a sync.Pool
// drops some of what is put back), the count must also be the same at every
// source and destination count.
func TestGKAllocationsIndependentOfSources(t *testing.T) {
	nw := NewNetwork(goldenTopology("jellyfish54").G, 1.0)
	const limit = 32
	kept := -1.0
	for _, sources := range []int{8, 48} {
		for _, dsts := range []int{8, 48} {
			comms := make([]Commodity, 48)
			for j := range comms {
				comms[j] = Commodity{Src: j % sources, Dst: nw.N - 1 - j%dsts, Demand: 1}
			}
			opt := GKOptions{Epsilon: 0.25, Workers: 1}
			if got := testing.AllocsPerRun(5, func() { MaxConcurrentFlow(nw, comms, opt) }); got > limit {
				t.Errorf("%d sources, %d destinations: %.0f allocations per solve, want <= %d", sources, dsts, got, limit)
			}
			opt.Workspace = new(Workspace)
			got := testing.AllocsPerRun(5, func() { MaxConcurrentFlow(nw, comms, opt) })
			if got > limit || (kept >= 0 && got != kept) {
				t.Errorf("%d sources, %d destinations: %.0f allocations per solve on a Workspace, want <= %d and the same at every count (first %.0f)",
					sources, dsts, got, limit, kept)
			}
			if kept < 0 {
				kept = got
			}
		}
	}
}
