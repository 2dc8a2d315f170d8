package fluid

import (
	"math/rand"
	"testing"

	"beyondft/internal/tm"
	"beyondft/internal/topology"
)

// recordingObserver captures the full observer stream for invariants.
type recordingObserver struct {
	phases []int
	iters  []int
	bounds []float64
	done   []GKResult
}

func (r *recordingObserver) GKPhase(phase, iterations int, d, dualBound float64) {
	r.phases = append(r.phases, phase)
	r.iters = append(r.iters, iterations)
	r.bounds = append(r.bounds, dualBound)
}

func (r *recordingObserver) GKDone(phases, iterations int, primal, dual float64) {
	r.done = append(r.done, GKResult{Throughput: primal, UpperBound: dual, Phases: phases})
}

func observerFixture(t testing.TB) (*Network, []Commodity) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	jf := topology.NewJellyfish(20, 5, 4, rng)
	var racks []int
	for r := 0; r < jf.G.N(); r++ {
		racks = append(racks, r)
	}
	m := tm.LongestMatching(jf.G, racks, func(int) int { return 4 })
	return NewNetwork(jf.G, 1.0), Commodities(m)
}

func TestGKObserverStream(t *testing.T) {
	nw, comms := observerFixture(t)
	rec := &recordingObserver{}
	res := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.1, Observer: rec})

	if len(rec.done) != 1 {
		t.Fatalf("GKDone fired %d times, want 1", len(rec.done))
	}
	d := rec.done[0]
	if d.Throughput != res.Throughput || d.UpperBound != res.UpperBound || d.Phases != res.Phases {
		t.Fatalf("GKDone summary %+v disagrees with result %+v", d, res)
	}
	if len(rec.phases) != res.Phases {
		t.Fatalf("GKPhase fired %d times, result reports %d phases", len(rec.phases), res.Phases)
	}
	for i := range rec.phases {
		if rec.phases[i] != i+1 {
			t.Fatalf("phase stream not 1..n: %v", rec.phases)
		}
		if i > 0 {
			if rec.iters[i] < rec.iters[i-1] {
				t.Fatalf("iteration counts not monotone: %v", rec.iters)
			}
			if rec.bounds[i] > rec.bounds[i-1] {
				t.Fatalf("dual bound rose: %v", rec.bounds)
			}
		}
	}
	if last := rec.bounds[len(rec.bounds)-1]; last < res.UpperBound {
		t.Fatalf("final streamed bound %g below result bound %g", last, res.UpperBound)
	}
}

// TestGKObserverDoesNotPerturb checks the observer is purely passive: the
// solve with and without one returns bit-identical results.
func TestGKObserverDoesNotPerturb(t *testing.T) {
	nw, comms := observerFixture(t)
	plain := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.1})
	nw2, comms2 := observerFixture(t)
	observed := MaxConcurrentFlow(nw2, comms2, GKOptions{Epsilon: 0.1, Observer: &recordingObserver{}})
	if plain.Throughput != observed.Throughput || plain.UpperBound != observed.UpperBound || plain.Phases != observed.Phases {
		t.Fatalf("observer changed the solve: %+v vs %+v", plain, observed)
	}
}

func TestGKTelemetry(t *testing.T) {
	nw, comms := observerFixture(t)
	tel := &GKTelemetry{}
	res := MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.1, Observer: tel})
	if !tel.Done {
		t.Fatal("GKTelemetry.Done not set")
	}
	if tel.Phases != res.Phases || tel.Primal != res.Throughput || tel.Dual != res.UpperBound {
		t.Fatalf("telemetry %+v disagrees with result %+v", tel, res)
	}
	if tel.Iterations <= 0 {
		t.Fatalf("no iterations recorded: %+v", tel)
	}
}

// TestGKObserverDisabledAllocFree is BenchmarkGKObserverDisabled's 0
// allocs/op gate: the hook
// sequence the hot loop executes with a nil observer — interface nil check
// at the phase boundary, integer increment per routing iteration — must
// not allocate.
func TestGKObserverDisabledAllocFree(t *testing.T) {
	var opt GKOptions // Observer == nil, as in every untraced solve
	iters := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		if opt.Observer != nil {
			opt.Observer.GKPhase(1, iters, 0.5, 1.0)
		}
		iters++
		if opt.Observer != nil {
			opt.Observer.GKDone(1, iters, 0.5, 1.0)
		}
	}); allocs != 0 {
		t.Fatalf("disabled observer path allocates: %v allocs/op", allocs)
	}
}
