package obs

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeStructure(t *testing.T) {
	root := StartSpan("job")
	a := root.Child("cache-probe")
	a.End()
	b := root.Child("compute")
	gk := b.Child("gk-solve")
	gk.SetAttr("phases", 42)
	gk.SetAttr("phases", 43) // overwrite, not append
	gk.SetAttr("dual", 1.25)
	gk.End()
	b.End()
	root.End()

	r := root.Record()
	if r.Name != "job" || len(r.Children) != 2 {
		t.Fatalf("bad root: %+v", r)
	}
	if r.Children[0].Name != "cache-probe" || r.Children[1].Name != "compute" {
		t.Fatalf("children out of order: %+v", r.Children)
	}
	g := r.Children[1].Children[0]
	if g.Name != "gk-solve" || len(g.Attrs) != 2 {
		t.Fatalf("bad gk span: %+v", g)
	}
	if g.Attrs[0] != (Attr{Key: "phases", Value: 43}) || g.Attrs[1] != (Attr{Key: "dual", Value: 1.25}) {
		t.Fatalf("bad attrs: %+v", g.Attrs)
	}
	if r.DurMs < 0 || g.StartMs < 0 {
		t.Fatalf("negative timings: %+v", r)
	}
}

func TestSpanDurations(t *testing.T) {
	s := StartSpan("outer")
	c := s.Child("inner")
	c.End()
	d := c.Record().DurMs
	c.End() // idempotent: must not restretch
	if got := c.Record().DurMs; got != d {
		t.Fatalf("End not idempotent: %vms then %vms", d, got)
	}
	s.End()
	if r := s.Record(); r.DurMs < r.Children[0].DurMs {
		t.Fatalf("parent %vms shorter than child %vms", r.DurMs, r.Children[0].DurMs)
	}
	// Records of unended spans report a running duration.
	u := StartSpan("running")
	if r := u.Record(); r.DurMs < 0 {
		t.Fatalf("running record has negative duration: %+v", r)
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	c := s.Child("x") // must be nil, not panic
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	c.End()
	c.SetAttr("k", 1)
	if c.Record() != nil {
		t.Fatal("nil span not inert")
	}
	var r *Record
	r.Fprint(&strings.Builder{}) // no panic
}

func TestNilSpanChildAllocationFree(t *testing.T) {
	var s *Span
	if allocs := testing.AllocsPerRun(100, func() {
		c := s.Child("x")
		c.SetAttr("k", 1)
		c.End()
	}); allocs != 0 {
		t.Fatalf("nil-span path allocates: %v allocs/op", allocs)
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	root := StartSpan("job")
	root.Child("stage").SetAttr("n", 3)
	root.End()
	r := root.Record()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "job" || len(back.Children) != 1 || back.Children[0].Attrs[0].Key != "n" {
		t.Fatalf("round trip lost structure: %+v", back)
	}
}

func TestFprintTree(t *testing.T) {
	r := &Record{Name: "job", DurMs: 12.34, Children: []*Record{
		{Name: "probe", DurMs: 0.5},
		{Name: "compute", DurMs: 11.5, Attrs: []Attr{{Key: "phases", Value: 7}},
			Children: []*Record{{Name: "solve", DurMs: 11}}},
	}}
	var sb strings.Builder
	r.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"job", "├─ probe", "└─ compute", "   └─ solve", "12.3ms", "phases=7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fprint output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", lines, out)
	}
}

func TestContextPropagation(t *testing.T) {
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context carried a span")
	}
	if SpanFromContext(nil) != nil { //nolint:staticcheck // nil ctx tolerated by design
		t.Fatal("nil context carried a span")
	}
	s := StartSpan("req")
	ctx := ContextWithSpan(context.Background(), s)
	if got := SpanFromContext(ctx); got != s {
		t.Fatalf("got %v, want %v", got, s)
	}
	// Nil span: context unchanged, zero cost.
	base := context.Background()
	if ContextWithSpan(base, nil) != base {
		t.Fatal("nil span changed the context")
	}
	var ran bool
	Do(ctx, "job", "test", func(ctx context.Context) {
		ran = SpanFromContext(ctx) == s
	})
	if !ran {
		t.Fatal("Do dropped the span from the context")
	}
}

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter not inert")
	}
	var g *Gauge
	g.Set(5)
	if g.Load() != 0 {
		t.Fatal("nil gauge not inert")
	}
	var h *Histogram
	h.Observe(time.Millisecond) // must not panic
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry returned live instruments")
	}
	if n, err := r.WriteTo(&strings.Builder{}); n != 0 || err != nil {
		t.Fatal("nil registry wrote output")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	h.Observe(500 * time.Microsecond) // le=1
	h.Observe(5 * time.Millisecond)   // le=10
	h.Observe(50 * time.Millisecond)  // le=100
	h.Observe(2 * time.Second)        // +Inf
	if h.count.Load() != 4 {
		t.Fatalf("count=%d", h.count.Load())
	}
	for i, want := range []int64{1, 1, 1, 1} {
		if got := h.buckets[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestRegistrySharedInstruments(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a_total") != r.Counter("a_total") {
		t.Fatal("same series, different counters")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same series, different gauges")
	}
	if r.Histogram(`h{x="1"}`, nil) != r.Histogram(`h{x="1"}`, nil) {
		t.Fatal("same series, different histograms")
	}
}

// promSample is one parsed line of Prometheus text exposition.
type promSample struct {
	series string
	value  float64
}

// parseProm parses the subset of the text format the registry emits.
func parseProm(t *testing.T, text string) []promSample {
	t.Helper()
	var out []promSample
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable line %q", line)
		}
		var v float64
		if _, err := fmtSscan(line[i+1:], &v); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out = append(out, promSample{series: line[:i], value: v})
	}
	return out
}

func fmtSscan(s string, v *float64) (int, error) {
	if s == "+Inf" {
		*v = math.Inf(1)
		return 1, nil
	}
	var f float64
	_, err := jsonNumber(s, &f)
	*v = f
	return 1, err
}

func jsonNumber(s string, f *float64) (int, error) {
	return 1, json.Unmarshal([]byte(s), f)
}

// TestPrometheusRoundTrip is the encoding round-trip the ISSUE asks for:
// render a registry to text, parse it back, and check every sample —
// counters, gauges, labeled histogram families with cumulative buckets —
// survives exactly.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total").Add(7)
	r.Counter(`app_cache_hits_total{tier="l1"}`).Add(3)
	r.Gauge("app_queue_depth").Set(2)
	h := r.Histogram(`app_latency_ms{endpoint="/v1/x"}`, []float64{1, 10})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(time.Second)

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range parseProm(t, sb.String()) {
		got[s.series] = s.value
	}
	want := map[string]float64{
		"app_requests_total":                                7,
		`app_cache_hits_total{tier="l1"}`:                   3,
		"app_queue_depth":                                   2,
		`app_latency_ms_bucket{endpoint="/v1/x",le="1"}`:    1,
		`app_latency_ms_bucket{endpoint="/v1/x",le="10"}`:   2,
		`app_latency_ms_bucket{endpoint="/v1/x",le="+Inf"}`: 3,
		`app_latency_ms_count{endpoint="/v1/x"}`:            3,
		`app_latency_ms_sum{endpoint="/v1/x"}`:              1005.5,
	}
	for series, v := range want {
		g, ok := got[series]
		if !ok {
			t.Fatalf("missing series %q in:\n%s", series, sb.String())
		}
		if math.Abs(g-v) > 1e-9 {
			t.Fatalf("%s = %g, want %g", series, g, v)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("extra series: got %d, want %d\n%s", len(got), len(want), sb.String())
	}
	// Deterministic encoding: a second render is byte-identical.
	var sb2 strings.Builder
	r.WriteTo(&sb2)
	if sb.String() != sb2.String() {
		t.Fatal("encoding not deterministic")
	}
}
