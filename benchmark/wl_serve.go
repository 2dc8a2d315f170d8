package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"beyondft/internal/obs"
	"beyondft/internal/serve"
)

const throughputPath = "/v1/throughput"

// prewarm posts every spec once so the node holds all of them, keeping the
// replies as payloads for the cache probes.
func prewarm(conn *httpConn, url string, specs []querySpec, envs []envelope) error {
	for i, sp := range specs {
		if s := conn.post(url+throughputPath, sp.Body, &envs[i]); !ok200(s) {
			return fmt.Errorf("pre-warm spec %d: status %d", i, s.Status)
		}
	}
	return nil
}

// dial opens n persistent connections to a node and sends one request on
// each, so no measured request pays for a TCP handshake.
func dial(n int, url string, body []byte) ([]*httpConn, error) {
	conns := make([]*httpConn, n)
	for i := range conns {
		conns[i] = newHTTPConn()
		if s := conns[i].post(url+throughputPath, body, nil); !ok200(s) {
			return nil, fmt.Errorf("dial: status %d", s.Status)
		}
	}
	return conns, nil
}

func closeConns(conns []*httpConn) {
	for _, c := range conns {
		if c != nil {
			c.close()
		}
	}
}

// closedClients is the client count of the closed-loop serving workloads:
// four per processor. With one per processor every request is two thread
// wake-ups across idle virtual CPUs, and ops_per_s measured the hypervisor
// (35k–44k req/s within minutes on warm_serve); with four the processors
// stay busy, the rate is set by the CPU cost of a request, and repeats
// within 2%.
func closedClients(env *runEnv) int { return 4 * env.NProc }

// clientRoots opens one span tree per client goroutine (nil when untraced).
func clientRoots(tr *tracer, n int) []*obs.Span {
	roots := make([]*obs.Span, n)
	for i := range roots {
		roots[i] = tr.root("loadgen.client")
	}
	return roots
}

// ---- warm_serve ----

type warmState struct {
	n     *node
	conns []*httpConn
	pool  []querySpec
	envs  []envelope
	picks []int32
}

func (s *warmState) close() {
	closeConns(s.conns)
	s.n.close()
}

func setupWarm(env *runEnv, work float64) (*warmState, error) {
	rng := inputRNG(env.Seed, "warm_serve")
	st := &warmState{pool: smallSpecs(rng, 64)}
	st.picks = uniformPicks(rng, count(300_000, work, 2_000), len(st.pool))
	st.envs = make([]envelope, len(st.pool))
	var err error
	if st.n, err = bootNode(serve.Config{CacheDir: env.tmp("warm"), L1Bytes: 64 << 20, Workers: env.NProc, QueueDepth: 2 * env.NProc}); err != nil {
		return nil, err
	}
	warmer := newHTTPConn()
	defer warmer.close()
	if err = prewarm(warmer, st.n.url, st.pool, st.envs); err == nil {
		st.conns, err = dial(closedClients(env), st.n.url, st.pool[0].Body)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (s *warmState) drive(tr *tracer) []shot {
	roots := clientRoots(tr, len(s.conns))
	url := s.n.url + throughputPath
	return closedLoop(len(s.conns), len(s.picks), func(c, i int) shot {
		var out shot
		var env *envelope
		if tr != nil {
			env = new(envelope)
		}
		call(roots[c], "serve.request", func() { out = s.conns[c].post(url, s.pool[s.picks[i]].Body, env) })
		return out
	})
}

func runWarmServe(env *runEnv) *result {
	r := newResult("warm_serve")
	work := env.work()
	st, err := timedSetup(r, func() (*warmState, error) { return setupWarm(env, work) }, (*warmState).close)
	if err != nil {
		r.failf("set-up: %v", err)
		return r
	}
	defer st.close()
	before := readServeCounters(st.n.srv.Metrics())
	var shots []shot
	r.Sec = measure(env.NProc, func() { shots = st.drive(nil) })
	delta := readServeCounters(st.n.srv.Metrics()).minus(before)
	checkWarm(r, shots, delta)
	if env.Trace {
		before = readServeCounters(st.n.srv.Metrics())
		tr := &tracer{}
		traced := measure(env.NProc, func() { shots = st.drive(tr) })
		delta = readServeCounters(st.n.srv.Metrics()).minus(before)
		sub := newResult(r.Workload)
		checkWarm(sub, shots, delta)
		r.Failures = append(r.Failures, sub.Failures...)
		r.Layer = map[string]float64{}
		delta.into(r.Layer)
		splitLatencies(r.Layer, shots)
		if l1, err := st.n.l1Stats(); err == nil {
			r.Layer["serve.l1_evictions"] = float64(l1.Evictions)
		}
		probeWarmPath(r.Layer, st.n, st.pool)
		probeClient(r.Layer, st.pool[0].Body)
		probeHarness(env, r.Layer, st.envs)
		lt := tr.fold()
		// nproc clients each spend the whole section inside requests.
		traceCommon(r, traced, lt.SelfMs["serve"]/float64(len(st.conns)))
	}
	return r
}

func checkWarm(r *result, shots []shot, delta serveCounters) {
	r.Attempted = len(shots)
	for _, s := range shots {
		if !ok200(s) {
			r.Failed++
		}
	}
	if r.Failed > 0 {
		r.failf("%d of %d warm requests were not answered 200", r.Failed, r.Attempted)
	}
	if delta.Computed != 0 || delta.L2Hits != 0 {
		r.failf("warm section computed %d results and read %d from disk, want 0 and 0", delta.Computed, delta.L2Hits)
	}
	if int(delta.L1Hits) != len(shots)-r.Failed {
		r.failf("warm section had %d L1 hits for %d answered requests", delta.L1Hits, len(shots)-r.Failed)
	}
	r.Ops = r.Attempted - r.Failed
	r.LatMs = latencies(shots, ok200)
	r.Digest["requests"] = r.Attempted
}

// ---- serve_mixed ----

// The serve_mixed latency limit: a request counts only if it is answered
// 200 within limitMs of its due time; a rung holds if at least holdShare
// of its arrivals count, its p99 is inside the limit, and it leaves at
// most one second of arrivals unsent.
const (
	limitMs   = 500
	holdShare = 0.99
	// midFailBound is how far fail_ratio at r_mid may sit above zero
	// before the run is wrong rather than unlucky.
	midFailBound = 0.005
)

// mixedRates are the three fixed rungs in requests per second. On the
// reference box the client pool (nproc connections, each held 50–80 ms by
// a cold compute at a 2% cold share) saturates near 1 200 req/s. r_mid
// sits at a quarter of that knee: the pool is an M/G/2 queue whose service
// times are 0.1 ms or 60 ms, and above ~⅓ utilisation the chance that an
// arrival finds both connections held by cold computes is high enough to
// move the median from run to run. r_high sits at twice the knee.
var (
	mixedRates = []float64{100, 300, 2400}
	mixedDurs  = []time.Duration{2500 * time.Millisecond, 5 * time.Second, 2500 * time.Millisecond}
)

const midRung = 1

type mixedState struct {
	n     *node
	conns []*httpConn
	pool  []querySpec
	envs  []envelope
	rungs []mixedRung
}

func (s *mixedState) close() {
	closeConns(s.conns)
	if s.n != nil {
		s.n.close()
	}
}

func setupMixed(env *runEnv, work float64) (*mixedState, error) {
	rng := inputRNG(env.Seed, "serve_mixed")
	st := &mixedState{pool: smallSpecs(rng, 128)}
	st.envs = make([]envelope, len(st.pool))
	durs := make([]time.Duration, len(mixedDurs))
	for i, d := range mixedDurs {
		durs[i] = time.Duration(float64(d) * work)
	}
	st.rungs = mixedRungs(rng, len(st.pool), mixedRates, durs)

	// A first node computes the pool into the shared disk tier and tells
	// us how many bytes the pool occupies in memory.
	dir := env.tmp("mixed")
	filler, err := bootNode(serve.Config{CacheDir: dir, L1Bytes: 64 << 20, Workers: env.NProc, QueueDepth: 2 * env.NProc})
	if err != nil {
		return nil, err
	}
	warmer := newHTTPConn()
	err = prewarm(warmer, filler.url, st.pool, st.envs)
	warmer.close()
	l1, statErr := filler.l1Stats()
	filler.close()
	if err != nil {
		return nil, err
	}
	if statErr != nil {
		return nil, statErr
	}
	// The measured node starts with the pool on disk and room for a
	// quarter of it in memory: the Zipf head lives in L1, the tail is read
	// from L2, and every cold insert evicts.
	st.n, err = bootNode(serve.Config{
		CacheDir: dir, L1Bytes: l1.Bytes / 4,
		Workers: max(1, env.NProc-1), QueueDepth: 2 * env.NProc,
	})
	if err != nil {
		return nil, err
	}
	if st.conns, err = dial(env.NProc, st.n.url, st.pool[0].Body); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// rungOutcome is one rung judged against the limit.
type rungOutcome struct {
	Rate     float64
	Arrivals int
	Counted  int // answered 200 within the limit
	Unsent   int
	P99Ms    float64 // over all arrivals; failed and unsent ones are +Inf
	Holds    bool
	Wall     time.Duration
}

func judgeRung(rate float64, shots []shot, wall time.Duration) rungOutcome {
	o := rungOutcome{Rate: rate, Arrivals: len(shots), Wall: wall}
	lat := make([]float64, len(shots))
	for i, s := range shots {
		lat[i] = math.Inf(1)
		switch {
		case s.Status == statusUnsent:
			o.Unsent++
		case ok200(s):
			lat[i] = float64(s.LatMs)
			if s.LatMs <= limitMs {
				o.Counted++
			}
		}
	}
	sort.Float64s(lat)
	o.P99Ms, _, _ = percentile(lat, 99)
	o.Holds = len(shots) > 0 && o.P99Ms <= limitMs &&
		float64(o.Counted) >= holdShare*float64(len(shots)) && float64(o.Unsent) <= rate
	return o
}

func (s *mixedState) driveRung(k int, tr *tracer) []shot {
	rung := s.rungs[k]
	roots := clientRoots(tr, len(s.conns))
	url := s.n.url + throughputPath
	return openLoop(&realClock{}, rung.Due, len(s.conns), rung.Dur+time.Second, func(c, i int) shot {
		var body []byte
		if p := rung.Pick[i]; p >= 0 {
			body = s.pool[p].Body
		} else {
			body = rung.Fresh[-p-1].Body
		}
		var out shot
		var env *envelope
		if tr != nil {
			env = new(envelope)
		}
		call(roots[c], "serve.request", func() { out = s.conns[c].post(url, body, env) })
		return out
	})
}

// mixedPass is one walk up the ladder. Only the middle rung is the
// measured section; the low rung settles the caches before it and the high
// rung exists to locate the knee.
type mixedPass struct {
	out   []rungOutcome
	shots [][]shot
	mid   section
}

func (s *mixedState) drive(tr *tracer) mixedPass {
	p := mixedPass{out: make([]rungOutcome, len(s.rungs)), shots: make([][]shot, len(s.rungs))}
	for k := range s.rungs {
		t0 := time.Now()
		if k == midRung {
			p.mid = measure(len(s.conns), func() { p.shots[k] = s.driveRung(k, tr) })
		} else {
			p.shots[k] = s.driveRung(k, tr)
		}
		p.out[k] = judgeRung(s.rungs[k].Rate, p.shots[k], time.Since(t0))
	}
	return p
}

func runServeMixed(env *runEnv) *result {
	r := newResult("serve_mixed")
	work := env.work()
	st, err := timedSetup(r, func() (*mixedState, error) { return setupMixed(env, work) }, (*mixedState).close)
	if err != nil {
		r.failf("set-up: %v", err)
		return r
	}
	pass := st.drive(nil)
	r.Sec, r.OpenLoop = pass.mid, true
	checkMixed(r, pass)
	st.close()
	if env.Trace {
		traceMixed(env, r, work)
	}
	return r
}

func checkMixed(r *result, pass mixedPass) {
	mid := pass.out[midRung]
	r.Attempted = mid.Arrivals
	r.Ops = mid.Counted
	r.Failed = mid.Arrivals - mid.Counted
	r.LatMs = latencies(pass.shots[midRung], ok200)
	if ratio := float64(r.Failed) / float64(max(r.Attempted, 1)); ratio > midFailBound {
		r.failf("r_mid (%g req/s): %d of %d arrivals failed, were refused or missed %d ms (ratio %.4f > %g)",
			mid.Rate, r.Failed, r.Attempted, limitMs, ratio, midFailBound)
	}
	var lag, service []float64
	for _, s := range pass.shots[midRung] {
		lag = append(lag, float64(s.LagMs))
		service = append(service, float64(s.LatMs-s.LagMs))
	}
	r.notef("r_mid generator lag p50 %.3f ms, latency after send p50 %.3f ms", median(lag), median(service))
	slo := 0.0
	for _, o := range pass.out {
		if o.Holds {
			slo = o.Rate
		}
		r.notef("rung %g req/s: %d arrivals, %d counted (%.2f%%), %d unsent, p99 %.1f ms, holds=%v",
			o.Rate, o.Arrivals, o.Counted, 100*float64(o.Counted)/float64(max(o.Arrivals, 1)), o.Unsent, o.P99Ms, o.Holds)
	}
	r.Extra["slo_rate_rps"] = slo
	r.Digest["arrivals"] = []int{pass.out[0].Arrivals, pass.out[1].Arrivals, pass.out[2].Arrivals}
}

func traceMixed(env *runEnv, r *result, work float64) {
	st, err := setupMixed(env, work)
	if err != nil {
		r.failf("traced set-up: %v", err)
		return
	}
	defer st.close()
	before := readServeCounters(st.n.srv.Metrics())
	tr := &tracer{}
	pass := st.drive(tr)
	delta := readServeCounters(st.n.srv.Metrics()).minus(before)
	layer := map[string]float64{}
	r.Layer = layer
	delta.into(layer)
	splitLatencies(layer, pass.shots[midRung])
	if l1, err := st.n.l1Stats(); err == nil {
		layer["serve.l1_evictions"] = float64(l1.Evictions)
	}
	var lag []float64
	for _, s := range pass.shots[midRung] {
		if s.Status != statusUnsent {
			lag = append(lag, float64(s.LagMs))
		}
	}
	sort.Float64s(lag)
	layer["loadgen.sched_lag_ms_p99"], _, _ = percentile(lag, 99)
	probeHarness(env, layer, st.envs)
	traceCommon(r, pass.mid, 0)
	// An open loop takes as long traced as untraced; what tracing costs
	// shows in the latency of a request.
	if p50 := median(r.LatMs); p50 > 0 {
		layer["obs.bench_trace_overhead_ratio"] = median(latencies(pass.shots[midRung], ok200))/p50 - 1
	}
}
