package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"beyondft/internal/experiments"
)

// BenchmarkServeThroughputCached measures the full HTTP round-trip of a
// warm query — decode, normalize, key, L1 hit, encode — which is the
// steady-state cost of the daemon for interactive what-if loops. Part of
// `make bench`.
func BenchmarkServeThroughputCached(b *testing.B) {
	s, err := New(Config{
		Experiments:    experiments.DefaultConfig(),
		CacheDir:       b.TempDir(),
		L1Bytes:        8 << 20,
		Workers:        2,
		QueueDepth:     8,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	do := func() int {
		resp, err := http.Post(ts.URL+"/v1/throughput", "application/json",
			strings.NewReader(smallThroughputBody))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := do(); code != http.StatusOK { // warm the cache
		b.Fatalf("warmup: code=%d", code)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := do(); code != http.StatusOK {
			b.Fatalf("code=%d", code)
		}
	}
	b.StopTimer()
	if computed := s.metrics.Computed.Load(); computed != 1 {
		b.Fatalf("benchmark recomputed %d times; every iteration must be an L1 hit", computed)
	}
}
