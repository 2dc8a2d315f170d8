package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"beyondft/internal/obs"
)

// collectNames flattens a span record tree into name → record.
func collectNames(r *obs.Record, into map[string]*obs.Record) {
	if r == nil {
		return
	}
	into[r.Name] = r
	for _, c := range r.Children {
		collectNames(c, into)
	}
}

// TestServeTraceQuery covers ?trace=1: a cold traced request returns a span
// tree spanning cache probes, admission, and the GK solve (with solver
// telemetry as attributes); an untraced request carries no trace at all.
func TestServeTraceQuery(t *testing.T) {
	s, err := New(testConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	qr, code := postJSON(t, ts.URL+"/v1/throughput?trace=1", smallThroughputBody)
	if code != http.StatusOK {
		t.Fatalf("traced cold: code=%d", code)
	}
	if qr.Trace == nil {
		t.Fatal("traced request returned no trace")
	}
	if qr.Trace.Name != "/v1/throughput" {
		t.Fatalf("trace root %q, want /v1/throughput", qr.Trace.Name)
	}
	spans := map[string]*obs.Record{}
	collectNames(qr.Trace, spans)
	for _, want := range []string{"l1-probe", "l2-probe", "admission", "compute", "build-topology", "gk-solve", "store"} {
		if spans[want] == nil {
			t.Errorf("trace missing %q span; got %v", want, keys(spans))
		}
	}
	if gk := spans["gk-solve"]; gk != nil {
		attrs := map[string]float64{}
		for _, a := range gk.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["phases"] < 1 || attrs["iterations"] < attrs["phases"] {
			t.Errorf("gk-solve attrs implausible: %v", gk.Attrs)
		}
		if f, ok := attrs["fallbacks"]; !ok || f < 0 || f > attrs["iterations"] {
			t.Errorf("gk-solve fallbacks %v (present %v), want within [0, iterations]", f, ok)
		}
		if attrs["dual_bound"] <= 0 {
			t.Errorf("gk-solve dual_bound %g, want > 0", attrs["dual_bound"])
		}
	}
	// The root span's duration bounds each stage's.
	for name, r := range spans {
		if r.DurMs > qr.Trace.DurMs+0.01 {
			t.Errorf("span %s (%.3fms) outlasts root (%.3fms)", name, r.DurMs, qr.Trace.DurMs)
		}
	}

	// Warm + untraced: no trace in the envelope.
	qr2, code := postJSON(t, ts.URL+"/v1/throughput", smallThroughputBody)
	if code != http.StatusOK || qr2.Source != SourceL1 {
		t.Fatalf("warm: code=%d source=%q", code, qr2.Source)
	}
	if qr2.Trace != nil {
		t.Fatal("untraced request carried a trace")
	}

	// Warm + traced: still a tree, but no compute under it.
	qr3, _ := postJSON(t, ts.URL+"/v1/throughput?trace=1", smallThroughputBody)
	spans3 := map[string]*obs.Record{}
	collectNames(qr3.Trace, spans3)
	if spans3["l1-probe"] == nil || spans3["compute"] != nil {
		t.Fatalf("warm trace should probe L1 and skip compute; got %v", keys(spans3))
	}

	// Counters land on /metrics: solver telemetry and the traced-request
	// count come from the same registry as the cache counters, so they
	// cannot be missing.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"beyondftd_gk_solves_total 1",
		"beyondftd_traced_requests_total 2",
		"beyondftd_gk_phases_total",
		"beyondftd_gk_iterations_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if s.Metrics().GKPhases.Load() < 1 || s.Metrics().GKIterations.Load() < s.Metrics().GKPhases.Load() {
		t.Errorf("GK counters implausible: phases=%d iters=%d",
			s.Metrics().GKPhases.Load(), s.Metrics().GKIterations.Load())
	}
}

func keys(m map[string]*obs.Record) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestMetricsSingleRegistry pins the drift-proofing invariant: every
// instrument the server counts with is rendered by /metrics, because
// Metrics is just a view over one obs.Registry.
func TestMetricsSingleRegistry(t *testing.T) {
	m := NewMetrics()
	m.Requests.Add(3)
	m.GKSolves.Add(2)
	m.Latency("/v1/x").Observe(0)
	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"beyondftd_requests_total 3",
		"beyondftd_gk_solves_total 2",
		"beyondftd_rejected_total 0", // untouched counters still render
		`beyondftd_request_duration_ms_count{endpoint="/v1/x"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteTo missing %q:\n%s", want, out)
		}
	}
	// Registry() hands out the same instruments by series name.
	if m.Registry().Counter("beyondftd_requests_total") != m.Requests {
		t.Fatal("Registry() returned a different counter for the same series")
	}
}

// stageSpans flattens a span tree in pre-order and keeps the request-path
// stages whose presence depends on the node's role for a key.
func stageSpans(r *obs.Record) []string {
	var out []string
	var walk func(*obs.Record)
	walk = func(r *obs.Record) {
		if r == nil {
			return
		}
		switch r.Name {
		case "peer-forward", "admission", "compute", "store":
			out = append(out, r.Name)
		}
		for _, c := range r.Children {
			walk(c)
		}
	}
	walk(r)
	return out
}

// TestClusterTraceShape pins which request-path stages a cold traced query
// runs on a clustered node, by its role for the key: a non-owner forwards and
// neither admits nor computes; an R=2 primary probes its sibling, misses, and
// computes; an R=1 primary has nobody to ask and goes straight to admission.
func TestClusterTraceShape(t *testing.T) {
	tracedStages := func(t *testing.T, url, body string) []string {
		t.Helper()
		qr, code := postJSON(t, url+"/v1/throughput?trace=1", body)
		if code != http.StatusOK || qr.Trace == nil {
			t.Fatalf("traced query: code=%d trace=%v", code, qr.Trace != nil)
		}
		return stageSpans(qr.Trace)
	}
	same := func(got, want []string) bool {
		return strings.Join(got, ",") == strings.Join(want, ",")
	}

	t.Run("non-owner", func(t *testing.T) {
		sA, _, urlA, urlB := clusterPair(t)
		body, _ := throughputSpecOwnedBy(t, sA.Cluster(), urlB)
		if got, want := tracedStages(t, urlA, body), []string{"peer-forward"}; !same(got, want) {
			t.Fatalf("non-owner cold request stages %v, want %v", got, want)
		}
	})
	t.Run("R=2 primary, sibling miss", func(t *testing.T) {
		sA, _, urlA, _ := clusterPairR2(t)
		body, _ := throughputSpecOwnedBy(t, sA.Cluster(), urlA)
		want := []string{"peer-forward", "admission", "compute", "store"}
		if got := tracedStages(t, urlA, body); !same(got, want) {
			t.Fatalf("R=2 primary cold request stages %v, want %v", got, want)
		}
	})
	t.Run("R=1 primary", func(t *testing.T) {
		sA, _, urlA, _ := clusterPair(t)
		body, _ := throughputSpecOwnedBy(t, sA.Cluster(), urlA)
		want := []string{"admission", "compute", "store"}
		if got := tracedStages(t, urlA, body); !same(got, want) {
			t.Fatalf("R=1 primary cold request stages %v, want %v", got, want)
		}
	})
}
