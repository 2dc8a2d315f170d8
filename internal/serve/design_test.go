package serve

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"testing"

	"beyondft/internal/topology"
)

// TestServeDesignKind walks a registered design through /v1/throughput:
// search-found (or hand-crafted) designs are first-class named topologies
// on the serving surface, keyed in the cache by content hash — and an
// unknown name is a client error, not a 500.
func TestServeDesignKind(t *testing.T) {
	d := topology.DesignOf(topology.NewJellyfish(12, 3, 2, rand.New(rand.NewSource(4))))
	d.Name = "test-serve-design"
	if err := topology.RegisterDesign(d); err != nil {
		t.Fatal(err)
	}

	s, err := New(testConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"topo":{"kind":"design","name":"test-serve-design"},"tm":"longest-matching"}`
	qr, code := postJSON(t, ts.URL+"/v1/throughput", body)
	if code != 200 || qr.Source != SourceComputed {
		t.Fatalf("design query: code=%d source=%q, want 200 computed", code, qr.Source)
	}
	var res ThroughputResult
	if err := json.Unmarshal(qr.Result, &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if res.Topology != d.Name || res.Switches != 12 || res.Servers != 24 {
		t.Fatalf("implausible result %+v", res)
	}
	if res.Throughput <= 0 || res.Throughput > 1 {
		t.Fatalf("implausible throughput %v", res.Throughput)
	}

	// The cache key must carry the design's content hash, not just the
	// name: a differently-spelled but identical request hits the entry.
	qr2, code := postJSON(t, ts.URL+"/v1/throughput",
		`{"topo":{"kind":"design","name":"test-serve-design","n":999,"seed":5},"tm":"longest-matching","x":1}`)
	if code != 200 || qr2.Key != qr.Key {
		t.Fatalf("normalized design specs did not share a cache entry: code=%d key %q vs %q", code, qr2.Key, qr.Key)
	}

	// Unknown design name: 400-class rejection at normalization.
	if _, code := postJSON(t, ts.URL+"/v1/throughput",
		`{"topo":{"kind":"design","name":"no-such-design"}}`); code != 400 {
		t.Fatalf("unknown design: code=%d, want 400", code)
	}
	// Missing name entirely.
	if _, code := postJSON(t, ts.URL+"/v1/throughput",
		`{"topo":{"kind":"design"}}`); code != 400 {
		t.Fatalf("nameless design: code=%d, want 400", code)
	}

	// /v1/pathstats accepts designs through the same TopoSpec.
	if _, code := postJSON(t, ts.URL+"/v1/pathstats",
		`{"topo":{"kind":"design","name":"test-serve-design"}}`); code != 200 {
		t.Fatalf("pathstats on design: code=%d, want 200", code)
	}
}
