package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"beyondft/internal/fluid"
	"beyondft/internal/graph"
	"beyondft/internal/harness"
	"beyondft/internal/obs"
	"beyondft/internal/serve"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
	"beyondft/internal/workload"
)

// gkSlack is how far below the dual bound a served GK answer may sit, in
// units of ε: cold solves stop on the potential budget and certify
// (1−3ε)·OPT, warm ones stop on the explicit (1−ε) gap.
const gkSlack = 3

// checkCertificate verifies primal ≤ dual and primal ≥ (1−gkSlack·ε)·dual
// and returns the relative gap.
func checkCertificate(r *result, what string, primal, dual, eps float64) float64 {
	if math.IsNaN(primal) || primal <= 0 {
		r.failf("%s: throughput %g is not positive", what, primal)
		return 0
	}
	if primal > dual*(1+1e-12) {
		r.failf("%s: primal %g above dual bound %g", what, primal, dual)
	}
	if primal < (1-gkSlack*eps)*dual {
		r.failf("%s: primal %g below (1-%d·%g)·dual %g", what, primal, gkSlack, eps, dual)
	}
	return (dual - primal) / dual
}

// coldState is one booted node with empty caches plus its client.
type coldState struct {
	n     *node
	conn  *httpConn
	dir   string
	specs []querySpec
	envs  []envelope
}

func (s *coldState) close() {
	s.conn.close()
	s.n.close()
}

func setupCold(env *runEnv, work float64) (*coldState, error) {
	st := &coldState{specs: coldSpecs(env.Seed, work), dir: env.tmp("cold"), conn: newHTTPConn()}
	var err error
	st.n, err = bootNode(serve.Config{CacheDir: st.dir, L1Bytes: 64 << 20, Workers: env.NProc, QueueDepth: 2 * env.NProc})
	if err != nil {
		return nil, err
	}
	st.envs = make([]envelope, len(st.specs))
	// One throwaway cold query, so the first measured op pays for neither
	// the connection nor the solver's first-use costs.
	warm := midSpecs(pinnedRNG("cold_query/warmup"), 1)[0]
	if s := st.conn.post(st.n.url+"/v1/throughput", warm.Body, nil); !ok200(s) {
		st.close()
		return nil, fmt.Errorf("cold_query warm-up: status %d", s.Status)
	}
	return st, nil
}

// drive is the measured section: one client, every spec once, in order.
func (s *coldState) drive(tr *tracer) []shot {
	root := tr.root("loadgen.client")
	return closedLoop(1, len(s.specs), func(_, i int) shot {
		var out shot
		call(root, "serve.request", func() {
			out = s.conn.post(s.n.url+"/v1/throughput", s.specs[i].Body, &s.envs[i])
		})
		return out
	})
}

func runColdQuery(env *runEnv) *result {
	r := newResult("cold_query")
	work := env.work()
	st, err := timedSetup(r, func() (*coldState, error) { return setupCold(env, work) }, (*coldState).close)
	if err != nil {
		r.failf("set-up: %v", err)
		return r
	}
	var shots []shot
	r.Sec = measure(1, func() { shots = st.drive(nil) })
	served := checkCold(r, st, shots)
	if env.Trace {
		st.close()
		traceCold(env, r, work, served)
		return r
	}
	st.close()
	return r
}

// checkCold fills the result from one pass and returns the served
// throughputs in spec order.
func checkCold(r *result, st *coldState, shots []shot) []float64 {
	r.Attempted = len(shots)
	served := make([]float64, len(shots))
	for i, s := range shots {
		before := len(r.Failures)
		served[i] = checkColdReply(r, i, st.specs[i].Req, s, st.envs[i])
		if len(r.Failures) > before {
			r.Failed++
		}
	}
	r.Ops = r.Attempted - r.Failed
	r.LatMs = latencies(shots, ok200)
	// The instances are pinned and only their order follows the seed.
	r.Digest["throughput"], r.SeedInvariant = sortedCopy(served), true
	if c := readServeCounters(st.n.srv.Metrics()); int(c.Computed) != len(shots)+1 { // +1: the warm-up
		r.failf("computed %d results for %d cold specs", c.Computed-1, len(shots))
	}
	return served
}

// checkColdReply verifies one cold answer and returns its throughput.
func checkColdReply(r *result, i int, req serve.ThroughputRequest, s shot, env envelope) float64 {
	what := fmt.Sprintf("spec %d (%s/%s)", i, req.Topo.Kind, req.TM)
	if !ok200(s) {
		r.failf("%s: status %d", what, s.Status)
		return 0
	}
	if s.Source != srcComputed {
		r.failf("%s: source %q, want computed (spec was seen before)", what, env.Source)
	}
	var tr serve.ThroughputResult
	if err := json.Unmarshal(env.Result, &tr); err != nil {
		r.failf("%s: result: %v", what, err)
		return 0
	}
	checkCertificate(r, what, tr.Throughput, tr.UpperBound, tr.Epsilon)
	if req.Topo.Kind == "fattree" && tr.Throughput < 1-gkSlack*tr.Epsilon {
		r.failf("%s: full-bisection fat-tree throughput %g, want ~1", what, tr.Throughput)
	}
	return tr.Throughput
}

// replayOut is what the staged replay of one spec produced.
type replayOut struct {
	Throughput         float64 // clamped like the served value
	Primal, Dual       float64
	Phases, Iterations int
	Commodities        int
}

// replaySpec rebuilds a served /v1/throughput answer stage by stage from
// outside, calling the same public functions in the same order as serve's
// handler, each inside its own span. It is what attributes a cold query's
// time to topology, tm, graph and fluid until those layers carry spans of
// their own.
func replaySpec(sp *obs.Span, req serve.ThroughputRequest) (replayOut, error) {
	var out replayOut
	var t *topology.Topology
	rng := rand.New(rand.NewSource(req.Topo.Seed))
	call(sp, "topology.build", func() {
		switch req.Topo.Kind {
		case "fattree":
			t = &topology.NewFatTree(req.Topo.K).Topology
		case "jellyfish":
			t = topology.NewJellyfish(req.Topo.N, req.Topo.Degree, req.Topo.Servers, rng)
		case "xpander":
			t = &topology.NewXpander(req.Topo.Degree, req.Topo.Lift, req.Topo.Servers, rng).Topology
		}
	})
	if t == nil {
		return out, fmt.Errorf("replay: topology kind %q not in the benchmark's mix", req.Topo.Kind)
	}
	rng = rand.New(rand.NewSource(req.Seed))
	serversOf := func(rack int) int { return t.Servers[rack] }
	var racks []int
	call(sp, "workload.active_racks", func() {
		racks = workload.ActiveRacks(t, 1, req.Topo.Kind == "fattree", rng)
	})
	var m *tm.TM
	call(sp, "tm.build", func() {
		switch req.TM {
		case "longest-matching":
			m = tm.LongestMatching(t.G, racks, serversOf)
		case "permutation":
			if len(racks)%2 == 1 {
				racks = racks[:len(racks)-1]
			}
			m = tm.RandomPermutation(racks, serversOf, rng)
		case "all-to-all":
			m = tm.AllToAll(racks, serversOf)
		}
	})
	if m == nil {
		return out, fmt.Errorf("replay: tm %q not in the benchmark's mix", req.TM)
	}
	if err := m.ValidateHose(serversOf); err != nil {
		return out, fmt.Errorf("replay: %w", err)
	}
	call(sp, "graph.freeze", func() { t.G.Frozen() })
	var nw *fluid.Network
	var comms []fluid.Commodity
	call(sp, "fluid.new_network", func() {
		nw = fluid.NewNetwork(t.G, 1.0)
		comms = fluid.Commodities(m)
	})
	var tel fluid.GKTelemetry
	var res fluid.GKResult
	call(sp, "fluid.gk_solve", func() {
		res = fluid.MaxConcurrentFlow(nw, comms, fluid.GKOptions{
			Epsilon: req.Epsilon, Workers: graph.Parallelism(), Observer: &tel,
		})
	})
	return replayOut{
		Throughput: min(res.Throughput, 1), Primal: res.Throughput, Dual: res.UpperBound,
		Phases: tel.Phases, Iterations: tel.Iterations, Commodities: len(comms),
	}, nil
}

// traceCold is cold_query's traced pass: the same section on a fresh node
// with the benchmark's spans on, then the staged replay of every spec,
// which must reproduce the served throughput bit for bit — otherwise the
// layer table would describe a different pipeline.
func traceCold(env *runEnv, r *result, work float64, untraced []float64) {
	st, err := setupCold(env, work)
	if err != nil {
		r.failf("traced set-up: %v", err)
		return
	}
	defer st.close()
	tr := &tracer{}
	var shots []shot
	traced := measure(1, func() { shots = st.drive(tr) })
	sub := newResult(r.Workload)
	served := checkCold(sub, st, shots)
	r.Failures = append(r.Failures, sub.Failures...)

	layer := map[string]float64{}
	r.Layer = layer
	counters := readServeCounters(st.n.srv.Metrics())
	counters.Requests-- // the warm-up
	counters.Computed--
	counters.into(layer)
	splitLatencies(layer, shots)
	if l1, err := st.n.l1Stats(); err == nil {
		layer["serve.l1_evictions"] = float64(l1.Evictions)
	}

	// Staged replay.
	rt := &tracer{}
	root := rt.root("loadgen.replay")
	maxGap := 0.0
	var solves, phases, iters, comms int
	for i, spec := range st.specs {
		out, err := replaySpec(root, spec.Req)
		if err != nil {
			r.failf("spec %d: %v", i, err)
			continue
		}
		if out.Throughput != served[i] || served[i] != untraced[i] {
			r.failf("spec %d: replay fidelity: replayed %v, served %v (traced) %v (untraced)", i, out.Throughput, served[i], untraced[i])
		}
		maxGap = math.Max(maxGap, checkCertificate(r, fmt.Sprintf("spec %d replay", i), out.Primal, out.Dual, spec.Req.Epsilon))
		solves++
		phases += out.Phases
		iters += out.Iterations
		comms += out.Commodities
	}
	lt := rt.fold()
	layer["topology.build_ms"] = lt.SelfMs["topology"]
	layer["topology.builds"] = float64(lt.Spans["topology"])
	layer["tm.build_ms"] = lt.SelfMs["tm"] + lt.SelfMs["workload"]
	layer["tm.commodities"] = float64(comms)
	layer["graph.freeze_ms"] = lt.SelfMs["graph"]
	layer["fluid.gk_solve_ms"] = lt.SelfMs["fluid"]
	layer["fluid.gk_solves"] = float64(solves)
	layer["fluid.gk_phases"] = float64(phases)
	layer["fluid.gk_iterations"] = float64(iters)
	if iters > 0 {
		layer["fluid.gk_us_per_iteration"] = lt.SelfMs["fluid"] * 1e3 / float64(iters)
	}
	layer["fluid.gk_max_gap"] = maxGap
	busy := lt.SelfMs["topology"] + lt.SelfMs["tm"] + lt.SelfMs["workload"] + lt.SelfMs["graph"] + lt.SelfMs["fluid"]
	traceCommon(r, traced, busy)

	// The disk tier as this workload left it, and what one put/get of a
	// recorded payload costs.
	if c, err := harness.OpenCache(st.dir); err == nil {
		if entries, bytes, err := c.Stats(); err == nil {
			layer["harness.l2_entries"] = float64(entries)
			layer["harness.l2_bytes"] = float64(bytes)
		}
	}
	probeHarness(env, layer, st.envs)
}
