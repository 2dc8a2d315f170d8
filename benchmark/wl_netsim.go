package main

import (
	"fmt"
	"math/rand"
	"time"

	"beyondft/internal/netsim"
	"beyondft/internal/sim"
	"beyondft/internal/topology"
	"beyondft/internal/workload"
)

// simLeg is one packet-level simulation: a topology, a routing scheme and
// a Poisson pFabric web-search workload over all racks, ready to run.
type simLeg struct {
	name    string
	net     *netsim.Network
	runner  *workload.Runner
	events  uint64 // the leg's fixed work: stop once this many events ran
	buildMs float64
}

// legEvents is a leg's event budget at Work=1 (≈4.6 s on the reference
// box). A leg is sized in events, not simulated time: pFabric sizes are
// heavy-tailed, so a fixed window's event count swings several percent
// with the seed, and the wall time of the call with it.
const legEvents = 30_000_000

// legLambda is the Poisson flow arrival rate per simulated second: about
// 0.14 M events per simulated millisecond, a moderate load with few drops.
const legLambda = 5_000

// legMeasuredShare of the expected simulated time is the window whose
// flows are measured and must all complete; the rest of the leg drains
// them under continuing background arrivals.
const legMeasuredShare = 0.4

var legShapes = []struct {
	name    string
	routing netsim.RoutingScheme
	build   func(rng *rand.Rand) *topology.Topology
}{
	{"fattree-k8/ecmp", netsim.ECMP, func(*rand.Rand) *topology.Topology { return &topology.NewFatTree(8).Topology }},
	{"xpander-5-9-3/hyb", netsim.HYB, func(rng *rand.Rand) *topology.Topology {
		return &topology.NewXpander(5, 9, 3, rng).Topology
	}},
}

// newLeg builds one leg with an event budget; the first measuredShare of
// its expected simulated time is the window whose flows must complete.
func newLeg(name string, topo *topology.Topology, routing netsim.RoutingScheme, events uint64, measuredShare float64, rng *rand.Rand) *simLeg {
	cfg := netsim.DefaultConfig()
	cfg.Routing = routing
	cfg.Seed = freshSeed(rng)
	cfg.DiscardCompleted = true
	t0 := time.Now()
	net := netsim.NewNetwork(topo, cfg)
	buildMs := float64(time.Since(t0)) / 1e6
	const eventsPerSimMs = 140_000 // at legLambda; only sizes the measured window
	window := sim.Time(measuredShare * float64(events) / eventsPerSimMs * float64(sim.Millisecond))
	exp := workload.DefaultExperiment(workload.NewA2A(topo, topo.ToRs()), workload.PFabricWebSearch(),
		legLambda, 0, window, window+20*sim.Second, freshSeed(rng))
	return &simLeg{name: name, net: net, runner: workload.NewRunner(exp, net), events: events, buildMs: buildMs}
}

func setupSim(env *runEnv, work float64) ([]*simLeg, error) {
	rng := inputRNG(env.Seed, "netsim_run")
	legs := make([]*simLeg, len(legShapes))
	for i, shape := range legShapes {
		topo := shape.build(rand.New(rand.NewSource(freshSeed(rng))))
		legs[i] = newLeg(shape.name, topo, shape.routing, uint64(legEvents*work), legMeasuredShare, rng)
	}
	// A throwaway 300k-event leg (pinned, nothing measured, so it ends on
	// its budget), so the measured legs start with the code paged in.
	driveSim([]*simLeg{newLeg("warm-up", &topology.NewFatTree(4).Topology, netsim.HYB, 300_000, 0, pinnedRNG("netsim_run/warmup"))}, nil)
	return legs, nil
}

// simPass is what one run over both legs produced.
type simPass struct {
	results []workload.Result
	loops   []sim.LoopStats
	callMs  []float64
	started []int64
	slab    []int
}

// driveSim steps every leg in 1 ms simulated chunks until its event budget
// is spent and every measured flow has completed (at full work the budget
// is what ends the leg; on tiny smoke runs the last long flow does).
func driveSim(legs []*simLeg, tr *tracer) simPass {
	var p simPass
	for _, leg := range legs {
		root := tr.root("workload.leg")
		r := leg.runner
		t0 := time.Now()
		for r.Net.Eng.Now() < r.Exp.MaxSimTime && !(r.Net.Eng.Processed() >= leg.events && r.Done()) {
			call(root, "netsim.step", func() { r.Step(r.Net.Eng.Now() + sim.Millisecond) })
		}
		root.End()
		p.callMs = append(p.callMs, float64(time.Since(t0))/1e6)
		p.results = append(p.results, r.Result())
		p.loops = append(p.loops, leg.net.LoopStats())
		p.started = append(p.started, leg.net.FlowsStarted())
		p.slab = append(p.slab, leg.net.SlabHighWater())
	}
	return p
}

func runNetsim(env *runEnv) *result {
	r := newResult("netsim_run")
	work := env.work()
	legs, err := timedSetup(r, func() ([]*simLeg, error) { return setupSim(env, work) }, func([]*simLeg) {})
	if err != nil {
		r.failf("set-up: %v", err)
		return r
	}
	var pass simPass
	r.Sec = measure(1, func() { pass = driveSim(legs, nil) })
	checkSim(r, legs, pass)
	if env.Trace {
		traceSim(env, r, work, pass)
	}
	return r
}

func checkSim(r *result, legs []*simLeg, pass simPass) {
	var events, flows []uint64
	var fct []float64
	for i, res := range pass.results {
		lost := res.MeasuredFlows - res.CompletedFlows
		r.Attempted += int(res.Events) + lost
		r.Failed += lost
		if lost != 0 || res.Overloaded {
			r.failf("%s: %d of %d measured flows did not complete", legs[i].name, lost, res.MeasuredFlows)
		}
		if res.MeasuredFlows == 0 || res.Events == 0 {
			r.failf("%s: nothing simulated (%d flows, %d events)", legs[i].name, res.MeasuredFlows, res.Events)
		}
		if pass.loops[i].Events != res.Events {
			r.failf("%s: loop counted %d events, engine %d", legs[i].name, pass.loops[i].Events, res.Events)
		}
		r.notef("%s: %d measured of %d started flows, %d events over %.1f simulated ms, %d drops, mean FCT %.3f ms",
			legs[i].name, res.MeasuredFlows, pass.started[i], res.Events, float64(res.SimulatedNs)/1e6, res.Drops, res.AvgFCTMs)
		events = append(events, res.Events, res.Drops)
		flows = append(flows, uint64(res.MeasuredFlows), uint64(pass.started[i]))
		fct = append(fct, res.AvgFCTMs, res.P99ShortFCTMs, res.AvgLongTputGbps)
	}
	r.Ops = r.Attempted - r.Failed
	r.LatMs = sortedCopy(pass.callMs)
	r.Digest["events_drops"] = events
	r.Digest["flows_measured_started"] = flows
	r.Digest["fct"] = fct
}

// traceSim reruns both legs on freshly built networks with a span per
// chunk, checks the simulation repeated exactly, and times the bare event
// engine at each leg's pending depth.
func traceSim(env *runEnv, r *result, work float64, untraced simPass) {
	legs, err := setupSim(env, work)
	if err != nil {
		r.failf("traced set-up: %v", err)
		return
	}
	tr := &tracer{}
	var pass simPass
	traced := measure(1, func() { pass = driveSim(legs, tr) })
	layer := map[string]float64{}
	r.Layer = layer
	var events, drops uint64
	var flows, started int64
	var loopMs, wallMs, buildMs, engineNs float64
	heapHW, slabHW := 0, 0
	for i, res := range pass.results {
		if fmt.Sprint(res) != fmt.Sprint(untraced.results[i]) { // not ==: a leg without long flows has a NaN mean
			r.failf("%s: traced simulation differs from untraced: %+v vs %+v", legs[i].name, res, untraced.results[i])
		}
		events += res.Events
		drops += res.Drops
		flows += int64(res.CompletedFlows)
		started += pass.started[i]
		loop := float64(pass.loops[i].WallTime) / 1e6
		loopMs += loop
		wallMs += pass.callMs[i]
		buildMs += legs[i].buildMs
		heapHW = max(heapHW, pass.loops[i].HeapHighWater)
		slabHW = max(slabHW, pass.slab[i])
		rate := float64(res.Events) / (pass.callMs[i] / 1e3)
		if i == 0 {
			layer["netsim.ecmp_events_per_s"] = rate
		} else {
			layer["netsim.hyb_events_per_s"] = rate
		}
		engineNs += probeSimEngine(pass.loops[i].HeapHighWater) / float64(len(pass.results))
	}
	layer["netsim.events"] = float64(events)
	layer["netsim.ns_per_event"] = loopMs * 1e6 / float64(events)
	layer["netsim.flows_completed"] = float64(flows)
	layer["netsim.allocs_per_flow"] = float64(traced.Mallocs) / float64(max(started, 1))
	layer["netsim.slab_high_water"] = float64(slabHW)
	layer["netsim.drops"] = float64(drops)
	layer["netsim.build_ms"] = buildMs
	layer["netsim.fct_mean_ms"] = pass.results[0].AvgFCTMs
	layer["netsim.fct_p99_short_ms"] = pass.results[0].P99ShortFCTMs
	layer["sim.heap_high_water"] = float64(heapHW)
	layer["sim.engine_ns_per_event"] = engineNs
	layer["workload.inject_ms"] = wallMs - loopMs
	layer["workload.flows_injected"] = float64(started)
	lt := tr.fold()
	traceCommon(r, traced, lt.SelfMs["netsim"]+lt.SelfMs["workload"])
}
