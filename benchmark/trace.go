package main

import (
	"math"
	"strings"
	"sync"

	"beyondft/internal/obs"
)

// tracer records the benchmark's own spans: one around each call the
// benchmark makes into a layer's public functions, named "<layer>.<call>".
// Spans inside the program are a later change; until then a layer's time
// is what its callers outside can see. A nil *tracer is the untraced run:
// call just runs f.
type tracer struct {
	mu    sync.Mutex
	roots []*obs.Span
}

// root opens a new span tree (one per client goroutine, so concurrent
// clients do not share a trace mutex). Nil-safe: returns a nil span.
func (t *tracer) root(name string) *obs.Span {
	if t == nil {
		return nil
	}
	sp := obs.StartSpan(name)
	t.mu.Lock()
	t.roots = append(t.roots, sp)
	t.mu.Unlock()
	return sp
}

// call runs f inside a child span of parent. With a nil parent (untraced)
// it costs one nil check.
func call(parent *obs.Span, name string, f func()) {
	sp := parent.Child(name)
	f()
	sp.End()
}

// layerTimes is self time and span count per layer.
type layerTimes struct {
	SelfMs map[string]float64
	Spans  map[string]int
}

// fold ends every root and sums self time per layer over all trees.
func (t *tracer) fold() layerTimes {
	lt := layerTimes{SelfMs: map[string]float64{}, Spans: map[string]int{}}
	if t == nil {
		return lt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.roots {
		r.End()
		foldSelf(r.Record(), lt)
	}
	return lt
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// foldSelf adds each span's self time — its duration minus the time its
// direct children cover — to its layer. Every child is subtracted exactly
// once, from its parent only, so the self times of a tree sum to the
// root's duration.
func foldSelf(r *obs.Record, into layerTimes) {
	if r == nil {
		return
	}
	self := r.DurMs
	for _, c := range r.Children {
		self -= c.DurMs
		foldSelf(c, into)
	}
	if self < 0 {
		self = 0 // children overlapping in time (parallel callees)
	}
	into.SelfMs[layerOf(r.Name)] += self
	into.Spans[layerOf(r.Name)]++
}

// splitLatencies reads the envelopes: server-side time, the part of the
// client latency the server did not see, and latency by answering tier.
func splitLatencies(layer map[string]float64, shots []shot) {
	var server, transport []float64
	bySource := map[uint8][]float64{}
	for _, s := range shots {
		if !ok200(s) || s.Source == srcNone {
			continue
		}
		server = append(server, float64(s.ServerMs))
		transport = append(transport, float64(s.LatMs-s.LagMs-s.ServerMs))
		bySource[s.Source] = append(bySource[s.Source], float64(s.LatMs))
	}
	layer["serve.server_ms_p50"] = median(server)
	layer["serve.transport_queue_ms_p50"] = median(transport)
	layer["serve.latency_ms_p50_l1"] = median(bySource[srcL1])
	layer["serve.latency_ms_p50_l2"] = median(bySource[srcL2])
	layer["serve.latency_ms_p50_computed"] = median(bySource[srcComputed])
}

// traceCommon records what every traced pass reports: the cost of tracing
// itself (traced wall over untraced wall, same work) and how much of the
// traced section the layer spans account for.
func traceCommon(r *result, traced section, layerBusyMs float64) {
	r.Layer["obs.bench_trace_overhead_ratio"] = traced.Wall.Seconds()/r.Sec.Wall.Seconds() - 1
	r.Layer["obs.layer_coverage_ratio"] = layerBusyMs / (traced.Wall.Seconds() * 1e3)
	r.Layer["runtime.gc_cycles"] = float64(traced.GCCycles)
	r.Layer["runtime.gc_pause_ms_total"] = traced.GCPauseMs
	vals := r.endToEndValues()
	for _, m := range demoted {
		r.Layer[m.Name] = vals[shortName(m)]
	}
	r.Layer["loadgen.op_p99_samples_beyond"] = vals["op_p99_samples_beyond"]
	if cov := r.Layer["obs.layer_coverage_ratio"]; layerBusyMs > 0 && math.Abs(cov-1) > 0.10 {
		r.notef("layer busy time covers %.0f%% of the traced section (want within 10%%)", cov*100)
	}
}
