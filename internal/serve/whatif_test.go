package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"beyondft/internal/whatif"
)

// smallWhatifBody sweeps all single-link failures of a 12-switch Jellyfish
// — a few dozen scenarios, milliseconds each at coarse ε.
const smallWhatifBody = `{"topo":{"kind":"jellyfish","n":12,"degree":3,"servers":2},"tm":"permutation","x":0.5,"family":{"kind":"single-link"},"ladder":{"top_k":4}}`

func decodeWhatifResult(t *testing.T, raw json.RawMessage) WhatifResult {
	t.Helper()
	var res WhatifResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode whatif result: %v", err)
	}
	return res
}

// TestServeWhatifEndToEnd: the sweep serves through the daemon, per-scenario
// entries land in L2, and an identical request is an L1 hit.
func TestServeWhatifEndToEnd(t *testing.T) {
	s, err := New(testConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	qr, code := postJSON(t, ts.URL+"/v1/whatif", smallWhatifBody)
	if code != http.StatusOK || qr.Source != SourceComputed {
		t.Fatalf("cold: code=%d source=%q, want 200 computed", code, qr.Source)
	}
	res := decodeWhatifResult(t, qr.Result)
	if res.Scenarios == 0 || len(res.Report.Results) != res.Scenarios {
		t.Fatalf("bad sweep shape: %+v", res)
	}
	if res.Report.Hist.Total() != int64(res.Scenarios) {
		t.Fatalf("histogram binned %d of %d", res.Report.Hist.Total(), res.Scenarios)
	}
	if res.Report.Promoted == 0 || len(res.Report.WorstIDs) == 0 {
		t.Fatalf("ladder did not promote: %+v", res.Report)
	}
	if res.Report.WarmHits == 0 {
		t.Fatalf("no warm starts in sweep: %+v", res.Report)
	}
	// The whatif counters are on /metrics via the shared registry.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "beyondftd_whatif_scenarios_total") {
		t.Fatal("whatif counters missing from /metrics")
	}

	qr2, code := postJSON(t, ts.URL+"/v1/whatif", smallWhatifBody)
	if code != http.StatusOK || qr2.Source != SourceL1 {
		t.Fatalf("second request: code=%d source=%q, want 200 l1", code, qr2.Source)
	}
	if string(qr2.Result) != string(qr.Result) {
		t.Fatal("cached sweep differs from computed one")
	}
}

// TestServeWhatifScenarioCacheShared: a second server on the same disk
// cache recomputes nothing scenario-wise — the sweep's per-scenario entries
// are content-addressed in L2, independent of the full-response entry.
func TestServeWhatifScenarioCacheShared(t *testing.T) {
	cacheDir := t.TempDir()
	s1, err := New(testConfig(t, cacheDir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	qr1, code := postJSON(t, ts1.URL+"/v1/whatif", smallWhatifBody)
	ts1.Close()
	if code != http.StatusOK {
		t.Fatalf("first sweep: %d", code)
	}
	res1 := decodeWhatifResult(t, qr1.Result)
	if res1.Report.CacheHits != 0 {
		t.Fatalf("fresh sweep hit scenario cache: %+v", res1.Report)
	}

	// Same base, different family: k-link samples share no deltas, but a
	// second single-link request (different ladder → different full-response
	// key) must be all scenario-cache hits.
	s2, err := New(testConfig(t, cacheDir))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	altLadder := strings.Replace(smallWhatifBody, `"top_k":4`, `"top_k":3`, 1)
	qr2, code := postJSON(t, ts2.URL+"/v1/whatif", altLadder)
	if code != http.StatusOK {
		t.Fatalf("second sweep: %d", code)
	}
	res2 := decodeWhatifResult(t, qr2.Result)
	if res2.Report.Evaluated != 0 {
		t.Fatalf("second sweep re-solved %d scenarios despite shared L2", res2.Report.Evaluated)
	}
	if res2.Report.CacheHits == 0 {
		t.Fatalf("second sweep: %+v", res2.Report)
	}
}

// TestServeWhatifCacheHistoryIndependent: two requests that differ only in
// ladder.top_k share per-scenario L2 entries, and the second must still
// answer exactly what a fresh daemon answers — the scenario cache is an
// accelerator, never an input. (It used to be one: scenarios promoted over a
// cached coarse rung were fine-solved from the wrong duals, so a daemon's
// answer, and the bytes it persisted and replicated, depended on what it
// had been asked before.)
func TestServeWhatifCacheHistoryIndependent(t *testing.T) {
	post := func(cacheDir string, bodies ...string) WhatifResult {
		t.Helper()
		s, err := New(testConfig(t, cacheDir))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		var last WhatifResult
		for _, body := range bodies {
			qr, code := postJSON(t, ts.URL+"/v1/whatif", body)
			if code != http.StatusOK || qr.Source != SourceComputed {
				t.Fatalf("code=%d source=%q, want 200 computed", code, qr.Source)
			}
			last = decodeWhatifResult(t, qr.Result)
		}
		return last
	}
	narrow := strings.Replace(smallWhatifBody, `"top_k":4`, `"top_k":2`, 1)
	wide := strings.Replace(smallWhatifBody, `"top_k":4`, `"top_k":8`, 1)
	warm := post(t.TempDir(), narrow, wide)
	cold := post(t.TempDir(), wide)
	if warm.Report.CacheHits == 0 || warm.Report.Promoted != 6 {
		t.Fatalf("second request: %d scenario-cache hits, %d promoted; want hits and 6 fresh promotions",
			warm.Report.CacheHits, warm.Report.Promoted)
	}
	// Everything but the run accounting must match.
	for _, r := range []*whatif.Report{warm.Report, cold.Report} {
		r.Evaluated, r.CacheHits, r.Promoted, r.WarmHits = 0, 0, 0, 0
	}
	a, _ := json.Marshal(warm)
	b, _ := json.Marshal(cold)
	if string(a) != string(b) {
		t.Fatalf("top_k=8 after top_k=2 on one daemon differs from a fresh daemon:\n%s\nvs\n%s", a, b)
	}
}

// TestServeWhatifStream: ?stream=1 yields NDJSON — scenario lines (one per
// scenario plus one per promotion) then a terminal done line that matches
// the non-streamed result shape.
func TestServeWhatifStream(t *testing.T) {
	s, err := New(testConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/whatif?stream=1", "application/json", strings.NewReader(smallWhatifBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var scenarios, promoted int
	var done *WhatifResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line whatifStreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		case line.Scenario != nil:
			if done != nil {
				t.Fatal("scenario line after done line")
			}
			scenarios++
			if line.Scenario.Promoted {
				promoted++
			}
		case line.Done != nil:
			res := decodeWhatifResult(t, line.Done)
			done = &res
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done == nil {
		t.Fatal("stream ended without a done line")
	}
	if scenarios != done.Scenarios+done.Report.Promoted {
		t.Fatalf("streamed %d scenario lines, want %d + %d promotions",
			scenarios, done.Scenarios, done.Report.Promoted)
	}
	if promoted != done.Report.Promoted {
		t.Fatalf("streamed %d promoted lines, report says %d", promoted, done.Report.Promoted)
	}
}

// TestServeWhatifBadRequests: validation surfaces as 400s with the strict
// decoder, oversize families are refused.
func TestServeWhatifBadRequests(t *testing.T) {
	s, err := New(testConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"unknown-field":  `{"topo":{"kind":"fattree"},"family":{"kind":"single-link"},"bogus":1}`,
		"unknown-family": `{"topo":{"kind":"fattree"},"family":{"kind":"disco-ball"}}`,
		"bad-ladder":     `{"topo":{"kind":"fattree"},"family":{"kind":"single-link"},"ladder":{"coarse_eps":0.01,"fine_eps":0.2}}`,
		"bad-topo":       `{"topo":{"kind":"fattree","k":3},"family":{"kind":"single-link"}}`,
	} {
		if _, code := postJSON(t, ts.URL+"/v1/whatif", body); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, code)
		}
	}
}

// TestWhatifSpecStability: the cache spec excludes injected handler state
// and the base spec excludes family/ladder, so scenario entries shared
// across families key identically.
func TestWhatifSpecStability(t *testing.T) {
	a := WhatifRequest{
		Topo:   TopoSpec{Kind: "fattree"},
		Family: whatif.FamilySpec{Kind: "single-link"},
	}
	if err := a.normalize(); err != nil {
		t.Fatal(err)
	}
	b := a
	b.Family = whatif.FamilySpec{Kind: "single-switch"}
	b.Ladder = whatif.Ladder{CoarseEps: 0.3, FineEps: 0.1, TopK: 2}
	if a.spec() == b.spec() {
		t.Fatal("different families share a full-response spec")
	}
	if a.baseSpec() != b.baseSpec() {
		t.Fatalf("base spec varies with family/ladder:\n%s\nvs\n%s", a.baseSpec(), b.baseSpec())
	}
}
