package fluid

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"beyondft/internal/graph"
)

// streamObserver records every observer call with its floats as bits, so two
// solves can be compared call for call.
type streamObserver struct{ calls []string }

func (o *streamObserver) GKPhase(phase, iterations int, d, dualBound float64) {
	o.calls = append(o.calls, fmt.Sprintf("phase %d %d %x %x", phase, iterations, math.Float64bits(d), math.Float64bits(dualBound)))
}

func (o *streamObserver) GKDone(phases, iterations int, primal, dual float64) {
	o.calls = append(o.calls, fmt.Sprintf("done %d %d %x %x", phases, iterations, math.Float64bits(primal), math.Float64bits(dual)))
}

// pollCtx reports cancellation from its (left+1)-th Err call on: a deadline
// that is a function of the solve's own progress, not of the clock. Only the
// routing goroutine polls, so it needs no lock.
type pollCtx struct {
	context.Context
	left int
}

func (c *pollCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// checkPipelineAgainstSerial solves one random instance at Workers 1 (the
// synchronous path), 2 and 4 (the dual-bound sweep beside the routing loop)
// and requires the same result bits, the same duals and the same observer
// stream. shape picks ε, a warm start, a phase cap and a poll-count
// cancellation; destinations may be isolated nodes, the unreachable exit.
func checkPipelineAgainstSerial(t *testing.T, seed int64, shape uint8) {
	defer func(min int) { gkPipelineMinWork = min }(gkPipelineMinWork)
	gkPipelineMinWork = 0 // these instances are far below it
	rng := rand.New(rand.NewSource(seed))
	nw := kernelTestNetwork(rng)
	comms := make([]Commodity, 1+rng.Intn(12))
	for j := range comms {
		comms[j] = Commodity{Src: rng.Intn(nw.N), Dst: rng.Intn(nw.N), Demand: float64(1+rng.Intn(4)) / 2}
	}
	opt := GKOptions{Epsilon: []float64{0.3, 0.15, 0.1, 0.2}[shape&3], ExportDuals: true}
	if shape&4 != 0 {
		opt.WarmStart = MaxConcurrentFlow(nw, comms, GKOptions{Epsilon: 0.3, Workers: 1, ExportDuals: true}).Duals
	}
	if shape&8 != 0 {
		opt.MaxPhases = 1 + int(shape>>5)
	}
	var want GKResult
	var wantCalls []string
	for _, workers := range []int{1, 2, 4} {
		obs := &streamObserver{}
		opt.Workers, opt.Observer, opt.Ctx = workers, obs, nil
		if shape&16 != 0 {
			opt.Ctx = &pollCtx{Context: context.Background(), left: 1 + int(shape>>5)}
		}
		got := MaxConcurrentFlow(nw, comms, opt)
		if workers == 1 {
			want, wantCalls = got, obs.calls
			continue
		}
		if math.Float64bits(got.Throughput) != math.Float64bits(want.Throughput) ||
			math.Float64bits(got.UpperBound) != math.Float64bits(want.UpperBound) || got.Phases != want.Phases {
			t.Fatalf("seed %d shape %d: workers %d gave %+v, serial %+v", seed, shape, workers, got, want)
		}
		for i, d := range want.Duals {
			if math.Float64bits(got.Duals[i]) != math.Float64bits(d) {
				t.Fatalf("seed %d shape %d: workers %d dual[%d] = %v, serial %v", seed, shape, workers, i, got.Duals[i], d)
			}
		}
		if a, b := strings.Join(obs.calls, "\n"), strings.Join(wantCalls, "\n"); a != b {
			t.Fatalf("seed %d shape %d: workers %d observer stream differs from serial:\n%s\n--- serial ---\n%s", seed, shape, workers, a, b)
		}
	}
}

// TestGKPipelineMatchesSerial runs the fuzz body over a seeded sweep of every
// shape so plain `go test` and the race target cover it.
func TestGKPipelineMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 256; seed++ {
		checkPipelineAgainstSerial(t, seed, uint8(seed*37))
	}
}

// FuzzGKPipelineVsSerial is the native fuzz entry point for the same check.
func FuzzGKPipelineVsSerial(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(5))
	f.Add(int64(3), uint8(2|8|64))
	f.Add(int64(4), uint8(1|16|32))
	f.Add(int64(-9), uint8(3|4|16|128))
	f.Fuzz(checkPipelineAgainstSerial)
}

// solverGoroutines counts goroutines running one of MaxConcurrentFlow's
// function literals: the sweep helper and what it fans out to.
func solverGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "fluid.MaxConcurrentFlow.func")
}

// TestGKNoGoroutineOutlivesSolve takes the solve's three ways out —
// converged, canceled in the middle of a phase's routing, and the early
// return on an unreachable destination, the last two with a sweep in flight
// — and requires the helper goroutine to be gone once the call has returned.
// The solve's last act is the hand-off that ends the helper, so the helper
// may still be unwinding for an instant; one left parked on its channel
// stays forever, which is what the deadline tells apart.
func TestGKNoGoroutineOutlivesSolve(t *testing.T) {
	defer func(min int) { gkPipelineMinWork = min }(gkPipelineMinWork)
	gkPipelineMinWork = 0
	nw, comms := observerFixture(t)
	ring := graph.New(6) // 0..4 on a ring, 5 isolated
	for u := 0; u < 5; u++ {
		ring.AddEdge(u, (u+1)%5)
	}
	stranded := []Commodity{{Src: 0, Dst: 2, Demand: 1}, {Src: 1, Dst: 3, Demand: 1}, {Src: 4, Dst: 5, Demand: 1}}
	var phase, atBoundary, phases, iters int
	for _, c := range []struct {
		name  string
		nw    *Network
		comms []Commodity
		ctx   context.Context
		exit  func(res GKResult) bool // did the solve leave the way the case intends?
	}{
		{"converged", nw, comms, nil, func(res GKResult) bool {
			return res.Throughput > 0 && phases == res.Phases
		}},
		{"canceled mid-phase", nw, comms, &pollCtx{Context: context.Background(), left: 3}, func(res GKResult) bool {
			return phase == phases && iters > atBoundary && iters%gkCtxPollEvery == 0
		}},
		{"unreachable destination", NewNetwork(ring, 1.0), stranded, nil, func(res GKResult) bool {
			return res.Throughput == 0 && res.UpperBound == 0 && res.Phases == 1 && phase == 1 && iters > atBoundary
		}},
	} {
		obs := &streamObserver{}
		res := MaxConcurrentFlow(c.nw, c.comms, GKOptions{Epsilon: 0.1, Workers: 2, Ctx: c.ctx, Observer: obs})
		n := len(obs.calls)
		fmt.Sscanf(obs.calls[n-2], "phase %d %d", &phase, &atBoundary)
		fmt.Sscanf(obs.calls[n-1], "done %d %d", &phases, &iters)
		if !c.exit(res) {
			t.Fatalf("%s: solve took another way out: %+v after %q, %q", c.name, res, obs.calls[n-2], obs.calls[n-1])
		}
		for deadline := time.Now().Add(5 * time.Second); solverGoroutines() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%s: a solver goroutine outlived the solve:\n%s", c.name, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}
