package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"beyondft/internal/harness"
	"beyondft/internal/serve"
	"beyondft/internal/sim"
)

// The probes below time one layer's public calls in isolation, with the
// payloads the workload itself produced. They run only in the traced pass
// and feed only the layer table.

// timeEach runs f n times and returns the median duration of one call.
func timeEach(n int, f func(i int)) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f(i)
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// probeHarness times the two cache tiers directly: harness.Cache put/get
// on a scratch directory and harness.LRU put/get, with the recorded
// result payloads.
func probeHarness(env *runEnv, layer map[string]float64, envs []envelope) {
	var payloads []envelope
	for _, e := range envs {
		if len(e.Result) > 0 {
			payloads = append(payloads, e)
		}
	}
	if len(payloads) == 0 {
		return
	}
	at := func(i int) envelope { return payloads[i%len(payloads)] }
	if c, err := harness.OpenCache(env.tmp("probe-l2")); err == nil {
		const n = 64
		put := timeEach(n, func(i int) {
			e := at(i)
			_ = c.Put(e.Key, harness.Entry{Job: "v1/throughput", Key: e.Key, Result: e.Result}) // a failed put shows as a failed get below
		})
		get := timeEach(n, func(i int) { _, _, _ = c.Get(at(i).Key) })
		layer["harness.l2_put_us"] = float64(put) / 1e3
		layer["harness.l2_get_us"] = float64(get) / 1e3
	}
	lru := harness.NewLRU(64 << 20)
	const batch = 1000
	put := timeEach(32, func(int) {
		for i := 0; i < batch; i++ {
			e := at(i)
			lru.Put(e.Key, e.Result)
		}
	})
	get := timeEach(32, func(int) {
		for i := 0; i < batch; i++ {
			lru.Get(at(i).Key)
		}
	})
	layer["harness.lru_put_ns"] = float64(put) / batch
	layer["harness.lru_get_ns"] = float64(get) / batch
}

// probeWarmPath splits a warm hit into handler, engine and codec without a
// socket: Handler().ServeHTTP into a recorder, Engine.Do on a warm key,
// and their difference (decode, key derivation, envelope encode).
func probeWarmPath(layer map[string]float64, n *node, specs []querySpec) {
	const reps = 2000
	h := n.srv.Handler()
	serveOne := func(i int, query string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/throughput"+query, bytes.NewReader(specs[i%len(specs)].Body))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	handler := timeEach(reps, func(i int) { serveOne(i, "") })
	tracedHandler := timeEach(reps, func(i int) { serveOne(i, "?trace=1") })
	layer["serve.handler_us_p50"] = float64(handler) / 1e3
	layer["obs.serve_trace_overhead_us"] = float64(tracedHandler-handler) / 1e3

	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < reps; i++ {
		serveOne(i, "")
	}
	runtime.ReadMemStats(&b)
	layer["serve.allocs_per_hit"] = float64(b.Mallocs-a.Mallocs) / reps

	eng := serve.NewEngine(serve.EngineConfig{L1Bytes: 64 << 20})
	payload := json.RawMessage(`{"throughput":1}`)
	compute := func(context.Context) (json.RawMessage, error) { return payload, nil }
	do := func(i int) {
		_, _, _, _ = eng.Do(context.Background(), "v1/throughput", string(specs[i%len(specs)].Body), serve.CodeSalt, compute)
	}
	for i := range specs {
		do(i)
	}
	engine := timeEach(reps, do)
	layer["serve.engine_do_us_p50"] = float64(engine) / 1e3
	layer["serve.codec_us_p50"] = float64(handler-engine) / 1e3
}

// probeClient runs the benchmark's own HTTP client against a handler that
// does nothing, so the generator's share of a warm request is known.
func probeClient(layer map[string]float64, body []byte) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	conn := newHTTPConn()
	defer conn.close()
	per := timeEach(2000, func(int) { conn.post(ts.URL, body, nil) })
	layer["loadgen.client_us_per_req"] = float64(per) / 1e3
}

// probeSimEngine times the bare event engine — no-op packet handlers, the
// pending depth held at the leg's heap high-water — to separate the event
// queue's cost from netsim's per-event work.
func probeSimEngine(depth int) float64 {
	const events = 2_000_000
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	var handler func(any)
	handler = func(any) {
		eng.SchedulePacket(eng.Now()+sim.Time(1+rng.Intn(10_000)), handler, nil)
	}
	for i := 0; i < max(depth, 1); i++ {
		eng.SchedulePacket(sim.Time(1+rng.Intn(10_000)), handler, nil)
	}
	t0 := time.Now()
	for eng.Processed() < events {
		eng.Run(eng.Now() + 10_000)
	}
	return float64(time.Since(t0)) / float64(eng.Processed())
}
