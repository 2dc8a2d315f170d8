package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. Nil-safe: Add/Inc
// on a nil counter are no-ops, Load returns 0.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// LatencyBucketsMs are the default upper bounds (milliseconds, cumulative)
// for latency histograms. Fixed buckets keep observation lock-free — one
// atomic increment — and make /metrics output directly comparable across
// runs and instances.
var LatencyBucketsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// Histogram is a fixed-bucket cumulative histogram of durations. All
// fields are atomics; Observe never blocks. Nil-safe.
type Histogram struct {
	boundsMs []float64
	buckets  []atomic.Int64 // len(boundsMs)+1; last = +Inf
	count    atomic.Int64
	sumUs    atomic.Int64 // total microseconds, for the _sum series
}

// NewHistogram returns a histogram over the given upper bounds (in
// milliseconds, ascending). Nil or empty bounds mean LatencyBucketsMs.
func NewHistogram(boundsMs []float64) *Histogram {
	if len(boundsMs) == 0 {
		boundsMs = LatencyBucketsMs
	}
	return &Histogram{
		boundsMs: boundsMs,
		buckets:  make([]atomic.Int64, len(boundsMs)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(h.boundsMs) && ms > h.boundsMs[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumUs.Add(int64(d / time.Microsecond))
}

// Registry is a named collection of counters, gauges and histograms that
// renders itself in the Prometheus text exposition format. Series names are
// full Prometheus series — optionally with a label set, e.g.
// `beyondftd_cache_hits_total{tier="l1"}` — and instrument lookups create
// on first use, so one registry can back both a /metrics endpoint and CLI
// status output without the two drifting.
//
// A nil *Registry returns nil instruments, whose methods are all no-ops:
// code can be written against a registry unconditionally and pay only nil
// checks when metrics are off.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(series string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[series]
	if !ok {
		c = &Counter{}
		r.counters[series] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(series string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[series]
	if !ok {
		g = &Gauge{}
		r.gauges[series] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram. boundsMs
// applies only on creation; nil means LatencyBucketsMs.
func (r *Registry) Histogram(series string, boundsMs []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[series]
	if !ok {
		h = NewHistogram(boundsMs)
		r.hists[series] = h
	}
	return h
}

// splitSeries splits `name{labels}` into (name, labels); labels is empty
// when the series carries none.
func splitSeries(series string) (name, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 && strings.HasSuffix(series, "}") {
		return series[:i], series[i+1 : len(series)-1]
	}
	return series, ""
}

// joinLabels merges a series' own label set with an extra label.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// WriteTo renders every instrument in the Prometheus text exposition
// format: counters and gauges as single samples, histograms as cumulative
// _bucket/_count/_sum families. Series are emitted in sorted name order, so
// the encoding is deterministic. Nil-safe (writes nothing).
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	var n int64
	p := func(format string, args ...any) error {
		c, err := fmt.Fprintf(w, format, args...)
		n += int64(c)
		return err
	}

	r.mu.Lock()
	counters := make([]string, 0, len(r.counters))
	for s := range r.counters {
		counters = append(counters, s)
	}
	gauges := make([]string, 0, len(r.gauges))
	for s := range r.gauges {
		gauges = append(gauges, s)
	}
	hists := make([]string, 0, len(r.hists))
	for s := range r.hists {
		hists = append(hists, s)
	}
	r.mu.Unlock()
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)

	for _, s := range counters {
		if err := p("%s %d\n", s, r.Counter(s).Load()); err != nil {
			return n, err
		}
	}
	for _, s := range gauges {
		if err := p("%s %d\n", s, r.Gauge(s).Load()); err != nil {
			return n, err
		}
	}
	for _, s := range hists {
		h := r.Histogram(s, nil)
		name, labels := splitSeries(s)
		cum := int64(0)
		for i := range h.buckets {
			cum += h.buckets[i].Load()
			le := "+Inf"
			if i < len(h.boundsMs) {
				le = fmt.Sprintf("%g", h.boundsMs[i])
			}
			if err := p("%s_bucket{%s} %d\n", name, joinLabels(labels, fmt.Sprintf("le=%q", le)), cum); err != nil {
				return n, err
			}
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		if err := p("%s_count%s %d\n", name, suffix, h.count.Load()); err != nil {
			return n, err
		}
		if err := p("%s_sum%s %.3f\n", name, suffix, float64(h.sumUs.Load())/1e3); err != nil {
			return n, err
		}
	}
	return n, nil
}
