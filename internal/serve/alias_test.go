package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"beyondft/internal/harness"
	"beyondft/internal/obs"
)

// serveBody posts body to path through the handler, without a socket.
func serveBody(t *testing.T, s *Server, path, body string) (queryResponse, int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	var qr queryResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatalf("decode %q: %v", rec.Body.Bytes(), err)
		}
	}
	return qr, rec.Code, rec.Body.Bytes()
}

func newTestServer(t *testing.T, mod func(*Config)) *Server {
	t.Helper()
	cfg := testConfig(t, t.TempDir())
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEnvelopeMatchesMarshal: the assembled reply is json.Marshal's, byte
// for byte, at every duration magnitude a request can have — down to the
// nanoseconds where encoding/json's float formatting is at its most
// particular — for every source, and for a result of each JSON shape.
func TestEnvelopeMatchesMarshal(t *testing.T) {
	key := harness.Key("v1/throughput", `{"topo":{"kind":"fattree","k":4}}`, CodeSalt)
	durations := []time.Duration{0, 1, 999, 1601, 123456789, 5 * time.Second, 100 * time.Nanosecond, 7 * time.Hour}
	results := []string{`{"topology":"jellyfish-ñ","throughput":0.29411764705882354}`, `[]`, `null`, `"\u003cb\u003e"`, `12`}
	for _, d := range durations {
		for _, src := range []Source{SourceL1, SourceL2, SourceComputed, SourceCoalesced, SourcePeer} {
			for _, res := range results {
				want, err := json.Marshal(queryResponse{
					Key: key, Source: src, DurationMs: float64(d) / float64(time.Millisecond), Result: json.RawMessage(res),
				})
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, '\n')
				if got := appendEnvelope(nil, key, src, d, json.RawMessage(res)); !bytes.Equal(got, want) {
					t.Errorf("d=%v src=%s:\n got %s\nwant %s", d, src, got, want)
				}
			}
		}
	}
}

// TestJSONFloatMatchesMarshal covers the branches no duration reaches: the
// %e form below 1e-6 and from 1e21 up, and the exponent clean-up.
func TestJSONFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{
		0, 1, -1, 0.5, 1e-6, 999e-9, 1e-7, 1.5e-9, 1e-10, 3.25e-300, 1e20, 1e21, 1.2345e22, 1e100, 1.7976931348623157e308,
		-1e-7, -1e21, 123456.789, 0.000001601, 1.0 / 3, math.SmallestNonzeroFloat64, 5000, 25569.000000000004,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("%g: got %s, want %s", f, got, want)
		}
	}
}

// TestEngineHasDoesNotPerturbL1: on a node without a disk tier an
// anti-entropy "have" probe is answered from L1. It used to go through
// LRU.Get, so every probe counted as an L1 hit in /healthz and made the
// probed key the most recently used — keys a peer kept asking about were
// never evicted.
func TestEngineHasDoesNotPerturbL1(t *testing.T) {
	payload := json.RawMessage(`"` + strings.Repeat("x", 98) + `"`) // 100 bytes; with 2-byte keys, 102 an entry
	e := NewEngine(EngineConfig{L1Bytes: 3 * 102})
	for _, k := range []string{"k0", "k1", "k2"} {
		e.fill(k, "job", "spec", "salt", payload)
	}
	before := e.L1Stats()
	for i := 0; i < 5; i++ {
		if !e.Has("k0") || e.Has("k9") {
			t.Fatal("Has gave the wrong answer")
		}
	}
	if after := e.L1Stats(); after != before {
		t.Errorf("have probes moved the L1 stats: %+v → %+v", before, after)
	}
	e.fill("k3", "job", "spec", "salt", payload) // evicts the least recently used: still k0
	if e.Has("k0") {
		t.Fatal("have probes refreshed k0's recency: it survived an eviction that was its turn")
	}
	if !e.Has("k1") {
		t.Fatal("k1 was evicted in k0's place")
	}
}

// TestAliasHitCountsLikeAnL1Hit: an alias hit moves the request counter,
// the L1 counters (the engine's and the LRU's), the endpoint histogram and
// the manifest record exactly as a resolver-path L1 hit does, plus its own
// counter.
func TestAliasHitCountsLikeAnL1Hit(t *testing.T) {
	s := newTestServer(t, nil)
	m := s.Metrics()
	latCount := func() int64 {
		// The endpoint histogram's _count series, as /metrics shows it.
		var b strings.Builder
		if _, err := m.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		const series = `beyondftd_request_duration_ms_count{endpoint="/v1/throughput"} `
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, series); ok {
				var n int64
				fmt.Sscan(v, &n)
				return n
			}
		}
		t.Fatalf("no %s series", series)
		return 0
	}
	first, code, _ := serveBody(t, s, "/v1/throughput", smallThroughputBody)
	if code != http.StatusOK || first.Source != SourceComputed {
		t.Fatalf("cold: %d %q", code, first.Source)
	}
	if m.AliasHits.Load() != 0 {
		t.Fatal("a first-seen body was an alias hit")
	}
	reqs, l1, obsN, lru := m.Requests.Load(), m.L1Hits.Load(), latCount(), s.engine.L1Stats()
	const n = 3
	for i := 0; i < n; i++ {
		qr, code, _ := serveBody(t, s, "/v1/throughput", smallThroughputBody)
		if code != http.StatusOK || qr.Source != SourceL1 || qr.Key != first.Key || string(qr.Result) != string(first.Result) {
			t.Fatalf("hit %d: %d %+v", i, code, qr)
		}
	}
	if got := m.AliasHits.Load(); got != n {
		t.Errorf("alias hits = %d, want %d", got, n)
	}
	if d := m.Requests.Load() - reqs; d != n {
		t.Errorf("requests moved by %d, want %d", d, n)
	}
	if d := m.L1Hits.Load() - l1; d != n {
		t.Errorf("L1 hits moved by %d, want %d", d, n)
	}
	if d := latCount() - obsN; d != n {
		t.Errorf("latency observations moved by %d, want %d", d, n)
	}
	after := s.engine.L1Stats()
	if after.Hits-lru.Hits != n || after.Misses != lru.Misses || after.Entries != lru.Entries {
		t.Errorf("LRU stats %+v → %+v, want %d more hits and nothing else", lru, after, n)
	}
	s.mu.Lock()
	jr, ok := s.served[first.Key]
	s.mu.Unlock()
	if !ok || !jr.Cached || jr.Name != "v1/throughput" {
		t.Errorf("manifest record for the key = %+v, %v; want a cached v1/throughput", jr, ok)
	}
	var metrics strings.Builder
	m.WriteTo(&metrics)
	if want := fmt.Sprintf("beyondftd_alias_hits_total %d\n", n); !strings.Contains(metrics.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestAliasIsExactBytes: an alias answers for the bytes it was registered
// with and nothing near them.
func TestAliasIsExactBytes(t *testing.T) {
	s := newTestServer(t, nil)
	m := s.Metrics()
	first, _, _ := serveBody(t, s, "/v1/throughput", smallThroughputBody)
	serveBody(t, s, "/v1/throughput", smallThroughputBody)
	if m.AliasHits.Load() != 1 {
		t.Fatalf("set-up: alias hits = %d, want 1", m.AliasHits.Load())
	}

	// A body sharing the aliased body's prefix but carrying an unknown field
	// is still a 400.
	typo := strings.TrimSuffix(smallThroughputBody, "}") + `,"epsilom":0.2}`
	for i := 0; i < 2; i++ {
		if _, code, raw := serveBody(t, s, "/v1/throughput", typo); code != http.StatusBadRequest || !bytes.Contains(raw, []byte("unknown field")) {
			t.Fatalf("unknown field, attempt %d: %d %s", i, code, raw)
		}
	}

	// A whitespace respelling resolves to the same key through the resolver
	// and from then on has an alias of its own; the first spelling keeps its.
	spaced := strings.ReplaceAll(smallThroughputBody, ":", ": ")
	qr, code, _ := serveBody(t, s, "/v1/throughput", spaced)
	if code != http.StatusOK || qr.Key != first.Key || qr.Source != SourceL1 {
		t.Fatalf("respelling: %d key=%.12s source=%q", code, qr.Key, qr.Source)
	}
	if m.AliasHits.Load() != 1 {
		t.Fatal("a first-seen spelling was an alias hit")
	}
	for _, body := range []string{spaced, smallThroughputBody} {
		before := m.AliasHits.Load()
		if qr, _, _ := serveBody(t, s, "/v1/throughput", body); qr.Key != first.Key || m.AliasHits.Load() != before+1 {
			t.Fatalf("%s: key=%.12s, alias hits %d → %d", body, qr.Key, before, m.AliasHits.Load())
		}
	}
	if st := s.engine.L1Stats(); st.Entries != 1 {
		t.Fatalf("two spellings made %d L1 entries, want 1", st.Entries)
	}

	// Trailing bytes after the JSON value are part of the spelling (the
	// decoder has always ignored them): same key, own alias.
	if qr, code, _ := serveBody(t, s, "/v1/throughput", smallThroughputBody+"\n"); code != http.StatusOK || qr.Key != first.Key {
		t.Fatalf("trailing newline: %d key=%.12s", code, qr.Key)
	}
}

// TestAliasNeverCrossesKinds: bytes that are a valid request of two kinds
// are two aliases, whichever kind saw them first.
func TestAliasNeverCrossesKinds(t *testing.T) {
	s := newTestServer(t, nil)
	body := `{"topo":{"kind":"jellyfish","n":12,"degree":3,"servers":2}}`
	var keys [2]string
	for round := 0; round < 3; round++ { // cold, resolver hit or alias hit, alias hit
		for i, path := range []string{"/v1/pathstats", "/v1/throughput"} {
			qr, code, _ := serveBody(t, s, path, body)
			if code != http.StatusOK {
				t.Fatalf("%s round %d: %d", path, round, code)
			}
			if round == 0 {
				keys[i] = qr.Key
			} else if qr.Key != keys[i] || qr.Source != SourceL1 {
				t.Fatalf("%s round %d: key=%.12s source=%q, want %.12s l1", path, round, qr.Key, qr.Source, keys[i])
			}
			var fields map[string]any
			if err := json.Unmarshal(qr.Result, &fields); err != nil {
				t.Fatal(err)
			}
			_, isPathStats := fields["diameter"]
			_, isThroughput := fields["throughput"]
			if isPathStats != (i == 0) || isThroughput != (i == 1) {
				t.Fatalf("%s round %d answered with the other kind's result: %s", path, round, qr.Result)
			}
		}
	}
	if keys[0] == keys[1] {
		t.Fatal("two kinds share a key")
	}
	if got := s.Metrics().AliasHits.Load(); got != 4 {
		t.Fatalf("alias hits = %d, want 4 (rounds 1 and 2 of both kinds)", got)
	}
}

// TestAliasSkipsQueryStrings: ?trace=1 on an aliased body still goes through
// the resolver and still returns a span tree.
func TestAliasSkipsQueryStrings(t *testing.T) {
	s := newTestServer(t, nil)
	serveBody(t, s, "/v1/throughput", smallThroughputBody)
	serveBody(t, s, "/v1/throughput", smallThroughputBody)
	before := s.Metrics().AliasHits.Load()
	qr, code, _ := serveBody(t, s, "/v1/throughput?trace=1", smallThroughputBody)
	if code != http.StatusOK || qr.Source != SourceL1 || qr.Trace == nil {
		t.Fatalf("traced: %d source=%q trace=%v", code, qr.Source, qr.Trace)
	}
	spans := map[string]*obs.Record{}
	collectNames(qr.Trace, spans)
	if qr.Trace.Name != "/v1/throughput" || spans["l1-probe"] == nil {
		t.Fatalf("span tree %v lacks the root or the l1-probe", keys(spans))
	}
	if got := s.Metrics().AliasHits.Load(); got != before {
		t.Fatalf("a request with a query string was an alias hit (%d → %d)", before, got)
	}
}

// TestAliasBodyBounds: a body over the alias bound is never aliased and is
// served by the resolver every time; a body over the 1 MiB request limit is
// the 400 it has always been.
func TestAliasBodyBounds(t *testing.T) {
	s := newTestServer(t, nil)
	padded := smallThroughputBody + strings.Repeat(" ", maxAliasBody)
	for i, want := range []Source{SourceComputed, SourceL1, SourceL1} {
		if qr, code, _ := serveBody(t, s, "/v1/throughput", padded); code != http.StatusOK || qr.Source != want {
			t.Fatalf("padded body, attempt %d: %d source=%q, want %q", i, code, qr.Source, want)
		}
	}
	if got := s.Metrics().AliasHits.Load(); got != 0 {
		t.Fatalf("a %d-byte body was aliased (%d hits)", len(padded), got)
	}
	// The largest body the probe reads is aliased.
	atBound := smallThroughputBody + strings.Repeat(" ", maxAliasBody-len(smallThroughputBody))
	serveBody(t, s, "/v1/throughput", atBound)
	serveBody(t, s, "/v1/throughput", atBound)
	if got := s.Metrics().AliasHits.Load(); got != 1 {
		t.Fatalf("a body of exactly maxAliasBody: %d alias hits, want 1", got)
	}

	huge := `{"topo":{"kind":"jellyfish","name":"` + strings.Repeat("x", 1<<20) + `"}}`
	if _, code, raw := serveBody(t, s, "/v1/throughput", huge); code != http.StatusBadRequest || !bytes.Contains(raw, []byte("request body too large")) {
		t.Fatalf("1 MiB body: %d %.100s", code, raw)
	}

	// A body shorter than its Content-Length reaches the decoder as before.
	req := httptest.NewRequest(http.MethodPost, "/v1/throughput", io.MultiReader(strings.NewReader(smallThroughputBody[:20])))
	req.ContentLength = int64(len(smallThroughputBody))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !bytes.Contains(rec.Body.Bytes(), []byte("decode request")) {
		t.Fatalf("short body: %d %s", rec.Code, rec.Body.Bytes())
	}
}

// TestAliasSharedWithBatch: /v1/batch items and POST /v1/<kind> bodies probe
// and register the same aliases, in either order.
func TestAliasSharedWithBatch(t *testing.T) {
	s := newTestServer(t, nil)
	m := s.Metrics()
	other := `{"topo":{"kind":"jellyfish","n":12,"degree":3,"servers":2},"seed":5}`
	batch := func() []batchLine {
		t.Helper()
		in := `{"kind":"throughput","spec":` + smallThroughputBody + "}\n" +
			`{"kind":"throughput","spec":` + other + "}\n"
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(in)))
		lines := make([]batchLine, 2)
		dec := json.NewDecoder(rec.Body)
		for {
			var l batchLine
			if err := dec.Decode(&l); err != nil {
				break
			}
			if l.Error != "" {
				t.Fatalf("batch line error: %s", l.Error)
			}
			if l.Index != nil {
				lines[*l.Index] = l
			}
		}
		return lines
	}
	direct, _, _ := serveBody(t, s, "/v1/throughput", smallThroughputBody) // registers the alias the batch item will hit
	cold := batch()
	if got := m.AliasHits.Load(); got != 1 {
		t.Fatalf("batch after POST: alias hits = %d, want 1 (item 0)", got)
	}
	if cold[0].Key != direct.Key || cold[0].Source != SourceL1 || string(cold[0].Result) != string(direct.Result) {
		t.Fatalf("batch item 0 = %+v, want the POSTed entry from l1", cold[0])
	}
	if cold[1].Source != SourceComputed {
		t.Fatalf("batch item 1 source = %q, want computed", cold[1].Source)
	}
	qr, _, _ := serveBody(t, s, "/v1/throughput", other) // aliased by the batch item
	if got := m.AliasHits.Load(); got != 2 || qr.Key != cold[1].Key {
		t.Fatalf("POST after batch: alias hits = %d, want 2; key %.12s want %.12s", got, qr.Key, cold[1].Key)
	}
	warm := batch()
	if got := m.AliasHits.Load(); got != 4 {
		t.Fatalf("second batch: alias hits = %d, want 4", got)
	}
	for i := range warm {
		if warm[i].Key != cold[i].Key || string(warm[i].Result) != string(cold[i].Result) || warm[i].Source != SourceL1 {
			t.Fatalf("second batch item %d = %+v", i, warm[i])
		}
	}
}

// TestAliasDiesWithItsEntry: at an L1 budget of one entry, a second query
// evicts the first and its alias with it; the first body then resolves
// again (to the disk tier) instead of answering from a dangling name.
func TestAliasDiesWithItsEntry(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.L1Bytes = 600 })
	a := smallThroughputBody
	b := `{"topo":{"kind":"jellyfish","n":12,"degree":3,"servers":2},"seed":5}`
	ra, _, _ := serveBody(t, s, "/v1/throughput", a)
	serveBody(t, s, "/v1/throughput", a)
	if s.Metrics().AliasHits.Load() != 1 {
		t.Fatal("set-up: no alias hit on the resident entry")
	}
	rb, _, _ := serveBody(t, s, "/v1/throughput", b)
	if st := s.engine.L1Stats(); st.Entries != 1 || st.Evictions == 0 {
		t.Fatalf("L1 after the second query: %+v, want one entry and an eviction", st)
	}
	qr, code, _ := serveBody(t, s, "/v1/throughput", a)
	if code != http.StatusOK || qr.Source != SourceL2 || qr.Key != ra.Key || string(qr.Result) != string(ra.Result) {
		t.Fatalf("evicted body: %d source=%q key=%.12s", code, qr.Source, qr.Key)
	}
	if qr.Key == rb.Key {
		t.Fatal("two specs share a key")
	}
	if got := s.Metrics().AliasHits.Load(); got != 1 {
		t.Fatalf("alias hits = %d, want 1: an alias outlived its entry", got)
	}
}

// nopResponse is a ResponseWriter that keeps nothing.
type nopResponse struct{ h http.Header }

func (w *nopResponse) Header() http.Header         { return w.h }
func (w *nopResponse) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponse) WriteHeader(int)             {}

// rewindBody is a request body that can be read again.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestWarmHitAllocations is the allocation gate of the warm path (ROADMAP
// 5(c)): Handler().ServeHTTP on a body whose alias is registered, into a
// ResponseWriter that keeps nothing, request construction excluded. The
// handler itself allocates nothing; what is counted is ServeMux's routing.
// The resolver path this replaced made 31.
func TestWarmHitAllocations(t *testing.T) {
	s := newTestServer(t, nil)
	serveBody(t, s, "/v1/throughput", smallThroughputBody)
	h := s.Handler()
	w := &nopResponse{h: http.Header{}}
	body := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/throughput", nil)
	req.Body, req.ContentLength = body, int64(len(smallThroughputBody))
	before := s.Metrics().AliasHits.Load()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		body.Reset([]byte(smallThroughputBody))
		h.ServeHTTP(w, req)
	})
	if got := s.Metrics().AliasHits.Load() - before; got != runs+1 { // AllocsPerRun adds a warm-up run
		t.Fatalf("%d of %d requests were alias hits", got, runs+1)
	}
	if allocs > 4 {
		t.Fatalf("a warm hit allocates %v times, want <= 4", allocs)
	}
}

// TestAliasHitsRaceEviction: alias hits, resolver-path hits, L2 promotions
// and the evictions they cause, from many goroutines at an L1 budget of
// about two entries. Whatever path answers, a body's reply carries that
// body's key and result. Run with -race -count=10.
func TestAliasHitsRaceEviction(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.L1Bytes = 1100; c.Logf = nil })
	type expect struct{ body, key, result string }
	var specs []expect
	for seed := 1; seed <= 6; seed++ {
		body := fmt.Sprintf(`{"topo":{"kind":"jellyfish","n":12,"degree":3,"servers":2},"seed":%d}`, seed)
		qr, code, _ := serveBody(t, s, "/v1/throughput", body)
		if code != http.StatusOK {
			t.Fatalf("cold %s: %d", body, code)
		}
		specs = append(specs, expect{body, qr.Key, string(qr.Result)})
	}
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				// Mostly the two hottest specs (alias hits), now and then
				// another (a promotion that evicts one of them).
				sp := specs[(g+i)%2]
				if i%5 == 4 {
					sp = specs[(g*7+i)%len(specs)]
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/throughput", strings.NewReader(sp.body)))
				var qr queryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil || rec.Code != http.StatusOK {
					t.Errorf("%s: %d %v %s", sp.body, rec.Code, err, rec.Body.Bytes())
					return
				}
				if qr.Key != sp.key || string(qr.Result) != sp.result {
					t.Errorf("%s answered with key %.12s result %s, want %.12s %s", sp.body, qr.Key, qr.Result, sp.key, sp.result)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.engine.L1Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("L1 over budget: %+v", st)
	}
	if s.Metrics().AliasHits.Load() == 0 || st.Evictions == 0 {
		t.Fatalf("the race did not happen: %d alias hits, %d evictions", s.Metrics().AliasHits.Load(), st.Evictions)
	}
}
