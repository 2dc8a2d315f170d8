package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"beyondft/internal/cluster"
	"beyondft/internal/harness"
)

// clusterPair boots two engine-backed servers joined into one ring, with
// fast failure timings. Returns the servers and their base URLs.
func clusterPair(t *testing.T) (sA, sB *Server, urlA, urlB string) {
	t.Helper()
	var err error
	if sA, err = New(testConfig(t, t.TempDir())); err != nil {
		t.Fatal(err)
	}
	if sB, err = New(testConfig(t, t.TempDir())); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sA.Handler())
	t.Cleanup(tsA.Close)
	tsB := httptest.NewServer(sB.Handler())
	t.Cleanup(tsB.Close)
	urlA, urlB = tsA.URL, tsB.URL
	peers := []string{urlA, urlB}
	mkCluster := func(self string, s *Server) *cluster.Cluster {
		cl, err := cluster.New(cluster.Config{
			Self: self, Peers: peers,
			ForwardTimeout: 5 * time.Second,
			Backoff:        time.Millisecond,
			DownFor:        50 * time.Millisecond,
			Registry:       s.Metrics().Registry(),
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	sA.EnableCluster(mkCluster(urlA, sA))
	sB.EnableCluster(mkCluster(urlB, sB))
	return sA, sB, urlA, urlB
}

// throughputSpecOwnedBy searches seeds for a canonical throughput spec whose
// cache key lands on the wanted ring owner.
func throughputSpecOwnedBy(t *testing.T, cl *cluster.Cluster, owner string) (body, spec string) {
	t.Helper()
	for seed := int64(1); seed < 10000; seed++ {
		req := ThroughputRequest{TM: "permutation", X: 0.5, Seed: seed}
		req.Topo = TopoSpec{Kind: "jellyfish", N: 12, Degree: 3, Servers: 2}
		if err := req.normalize(); err != nil {
			t.Fatal(err)
		}
		spec := req.spec()
		if cl.Owners(harness.Key("v1/throughput", spec, CodeSalt))[0] == owner {
			return fmt.Sprintf(`{"topo":{"kind":"jellyfish","n":12,"degree":3,"servers":2},"tm":"permutation","x":0.5,"seed":%d}`, seed), spec
		}
	}
	t.Fatalf("no spec owned by %s found", owner)
	return "", ""
}

// TestServeClusterForwardAndFill: a query for a key another node owns is
// forwarded there, computed once, served back as source=peer, and filled
// into the requester's caches so the rerun is a local L1 hit.
func TestServeClusterForwardAndFill(t *testing.T) {
	sA, sB, _, urlB := clusterPair(t)
	body, _ := throughputSpecOwnedBy(t, sA.Cluster(), urlB)

	qr, code := postJSON(t, sA.Cluster().Self()+"/v1/throughput", body)
	if code != http.StatusOK || qr.Source != SourcePeer {
		t.Fatalf("forwarded query: code=%d source=%q, want 200 peer", code, qr.Source)
	}
	if got := sB.Metrics().Computed.Load(); got != 1 {
		t.Fatalf("owner computed = %d, want 1", got)
	}
	if got := sA.Metrics().Computed.Load(); got != 0 {
		t.Fatalf("requester computed = %d, want 0", got)
	}
	if got := sA.Metrics().PeerFills.Load(); got != 1 {
		t.Fatalf("peer fills = %d, want 1", got)
	}

	// The fill made the rerun local.
	qr2, code := postJSON(t, sA.Cluster().Self()+"/v1/throughput", body)
	if code != http.StatusOK || qr2.Source != SourceL1 {
		t.Fatalf("rerun: code=%d source=%q, want l1", code, qr2.Source)
	}
	if qr2.Key != qr.Key || string(qr2.Result) != string(qr.Result) {
		t.Fatal("filled bytes differ from forwarded bytes")
	}

	// The owner serves the same spec from its own cache, byte-identically.
	qr3, code := postJSON(t, urlB+"/v1/throughput", body)
	if code != http.StatusOK || string(qr3.Result) != string(qr.Result) {
		t.Fatalf("owner rerun: code=%d, bytes differ", code)
	}
}

// TestServeClusterLoopGuard: a request arriving with the forwarded header
// is served locally even when the ring says another node owns it — one hop
// maximum, whatever the membership views are.
func TestServeClusterLoopGuard(t *testing.T) {
	sA, sB, urlA, urlB := clusterPair(t)
	body, _ := throughputSpecOwnedBy(t, sA.Cluster(), urlB)

	req, err := http.NewRequest(http.MethodPost, urlA+"/v1/throughput", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardHeader, "http://some-third-node:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || qr.Source != SourceComputed {
		t.Fatalf("forwarded-in request: code=%d source=%q, want 200 computed locally", resp.StatusCode, qr.Source)
	}
	if got := sA.Metrics().Computed.Load(); got != 1 {
		t.Fatalf("node A computed = %d, want 1 (no second hop)", got)
	}
	if got := sB.Metrics().Computed.Load(); got != 0 {
		t.Fatalf("node B computed = %d, want 0", got)
	}
	if got := sA.Cluster().Metrics().LoopGuard.Load(); got != 1 {
		t.Fatalf("loop-guard counter = %d, want 1", got)
	}
}

// TestServeClusterOwnerDownFallsBack: when the key's owner is unreachable
// and the hedge chain bottoms out on this node, the request is computed
// locally — availability over strict ownership.
func TestServeClusterOwnerDownFallsBack(t *testing.T) {
	sA, _, _, urlB := clusterPair(t)
	body, _ := throughputSpecOwnedBy(t, sA.Cluster(), urlB)

	// Point A's ring at a dead address for B (simulates B crashing without
	// a membership update).
	deadB := httptest.NewServer(http.HandlerFunc(nil))
	dead := deadB.URL
	deadB.Close()
	// Rebuild A's cluster with the dead peer substituted, keeping the same
	// key→owner shape only if the URL hashes identically — it won't, so
	// instead find a spec owned by the dead node on the new ring.
	cl, err := cluster.New(cluster.Config{
		Self: sA.Cluster().Self(), Peers: []string{sA.Cluster().Self(), dead},
		ForwardTimeout: time.Second,
		Backoff:        time.Millisecond,
		DownFor:        50 * time.Millisecond,
		Registry:       sA.Metrics().Registry(),
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	sA.EnableCluster(cl)
	body, _ = throughputSpecOwnedBy(t, cl, dead)

	qr, code := postJSON(t, cl.Self()+"/v1/throughput", body)
	if code != http.StatusOK || qr.Source != SourceComputed {
		t.Fatalf("fallback query: code=%d source=%q, want 200 computed", code, qr.Source)
	}
	if got := sA.Metrics().Computed.Load(); got != 1 {
		t.Fatalf("computed = %d, want 1", got)
	}
}

// clusterPairR2 boots two servers joined into one ring with replicated
// ownership (R=2) and the background replication loops running.
func clusterPairR2(t *testing.T) (sA, sB *Server, urlA, urlB string) {
	t.Helper()
	var err error
	if sA, err = New(testConfig(t, t.TempDir())); err != nil {
		t.Fatal(err)
	}
	if sB, err = New(testConfig(t, t.TempDir())); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sA.Handler())
	t.Cleanup(tsA.Close)
	tsB := httptest.NewServer(sB.Handler())
	t.Cleanup(tsB.Close)
	urlA, urlB = tsA.URL, tsB.URL
	peers := []string{urlA, urlB}
	for _, n := range []struct {
		self string
		s    *Server
	}{{urlA, sA}, {urlB, sB}} {
		cl, err := cluster.New(cluster.Config{
			Self: n.self, Peers: peers,
			Replication:         2,
			ForwardTimeout:      5 * time.Second,
			Backoff:             time.Millisecond,
			DownFor:             50 * time.Millisecond,
			AntiEntropyInterval: time.Hour, // push path only; no background passes
			Registry:            n.s.Metrics().Registry(),
			Logf:                t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.s.EnableCluster(cl)
		cl.Start()
		t.Cleanup(cl.Stop)
	}
	return sA, sB, urlA, urlB
}

// TestServeClusterReplicatesFreshCompute: with R=2, a fresh compute at the
// primary lands durably on the sibling replica without any request hitting
// it, and the sibling then serves the key entirely locally.
func TestServeClusterReplicatesFreshCompute(t *testing.T) {
	sA, sB, urlA, _ := clusterPairR2(t)
	// On a two-node R=2 ring both nodes own every key; pick one where A is
	// the primary so the compute provably happens at A.
	body, spec := throughputSpecOwnedBy(t, sA.Cluster(), urlA)
	key := harness.Key("v1/throughput", spec, CodeSalt)

	qr, code := postJSON(t, urlA+"/v1/throughput", body)
	if code != http.StatusOK || qr.Source != SourceComputed {
		t.Fatalf("primary query: code=%d source=%q, want 200 computed", code, qr.Source)
	}
	// The push is asynchronous: wait for it to land at the sibling.
	for deadline := time.Now().Add(5 * time.Second); !sB.engine.Has(key); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("sibling replica does not hold the key after the push")
		}
	}
	qr2, code := postJSON(t, sB.Cluster().Self()+"/v1/throughput", body)
	if code != http.StatusOK || (qr2.Source != SourceL2 && qr2.Source != SourceL1) {
		t.Fatalf("replica query: code=%d source=%q, want a local cache hit", code, qr2.Source)
	}
	if string(qr2.Result) != string(qr.Result) {
		t.Fatal("replica bytes differ from the primary's")
	}
	if got := sB.Metrics().Computed.Load(); got != 0 {
		t.Fatalf("replica computed = %d, want 0", got)
	}
}

// TestServeClusterSiblingProbe: a primary owner whose caches are cold (a
// rejoined node) warms itself from the sibling replica's cache instead of
// recomputing — the tentpole's zero-cold-recompute path.
func TestServeClusterSiblingProbe(t *testing.T) {
	sA, sB, urlA, urlB := clusterPairR2(t)
	body, spec := throughputSpecOwnedBy(t, sA.Cluster(), urlA)
	key := harness.Key("v1/throughput", spec, CodeSalt)

	// Seed the bytes at the sibling only (as if A had just rejoined empty).
	entry := cluster.Entry{
		Key: key, Name: "v1/throughput", Spec: spec, Salt: CodeSalt,
		Result: json.RawMessage(`{"seeded":true}`),
	}
	data, err := json.Marshal(&entry)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(urlB+cluster.PathFill, "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed fill: status %d", resp.StatusCode)
	}

	qr, code := postJSON(t, urlA+"/v1/throughput", body)
	if code != http.StatusOK || qr.Source != SourcePeer {
		t.Fatalf("cold primary query: code=%d source=%q, want 200 peer (sibling probe hit)", code, qr.Source)
	}
	if string(qr.Result) != `{"seeded":true}` {
		t.Fatalf("result = %s, want the sibling's bytes", qr.Result)
	}
	if got := sA.Metrics().Computed.Load(); got != 0 {
		t.Fatalf("primary computed = %d, want 0 (bytes existed at the sibling)", got)
	}
	if got := sA.Cluster().Metrics().ReplicaProbeHits.Load(); got != 1 {
		t.Fatalf("probe hits = %d, want 1", got)
	}
	_ = sB
}

// TestServeClusterFillEndpoint: the fill endpoint is idempotent (second
// push reports had=true, bytes stored once) and rejects entries whose
// content address does not match their metadata.
func TestServeClusterFillEndpoint(t *testing.T) {
	s, err := New(testConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	key := harness.Key("job-x", `{"a":1}`, "salt")
	push := func(e cluster.Entry) (cluster.FillResponse, int) {
		t.Helper()
		data, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+cluster.PathFill, "application/json", strings.NewReader(string(data)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var fr cluster.FillResponse
		json.NewDecoder(resp.Body).Decode(&fr)
		return fr, resp.StatusCode
	}
	good := cluster.Entry{Key: key, Name: "job-x", Spec: `{"a":1}`, Salt: "salt", Result: json.RawMessage(`{"v":1}`)}
	if fr, code := push(good); code != http.StatusOK || fr.Had {
		t.Fatalf("first fill: code=%d had=%v, want 200 had=false", code, fr.Had)
	}
	if fr, code := push(good); code != http.StatusOK || !fr.Had {
		t.Fatalf("second fill: code=%d had=%v, want 200 had=true (idempotent)", code, fr.Had)
	}
	bad := good
	bad.Spec = `{"a":2}` // metadata no longer derives the claimed key
	if _, code := push(bad); code != http.StatusBadRequest {
		t.Fatalf("mismatched fill: code=%d, want 400", code)
	}

	// The entry endpoint serves what fill stored, and 404s the rest.
	resp, err := http.Get(ts.URL + cluster.PathEntry + key)
	if err != nil {
		t.Fatal(err)
	}
	var got cluster.Entry
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(got.Result) != `{"v":1}` || got.Name != "job-x" {
		t.Fatalf("entry read: code=%d entry=%+v", resp.StatusCode, got)
	}
	resp, err = http.Get(ts.URL + cluster.PathEntry + harness.Key("absent", "{}", ""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent entry: code=%d, want 404", resp.StatusCode)
	}
}

// TestServeClusterHaveEndpoint: the bulk presence probe answers per key,
// aligned with the request.
func TestServeClusterHaveEndpoint(t *testing.T) {
	s, err := New(testConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	key := harness.Key("job-y", `{}`, "s")
	s.engine.Fill(key, "job-y", `{}`, "s", json.RawMessage(`{"v":2}`))

	body, _ := json.Marshal(cluster.HaveRequest{Keys: []string{key, "missing-key"}})
	resp, err := http.Post(ts.URL+cluster.PathHave, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr cluster.HaveResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if len(hr.Have) != 2 || !hr.Have[0] || hr.Have[1] {
		t.Fatalf("have = %v, want [true false]", hr.Have)
	}
}

// TestServeClusterGossipEndpoint: standalone nodes refuse gossip; clustered
// nodes merge and answer with their table.
func TestServeClusterGossipEndpoint(t *testing.T) {
	s, err := New(testConfig(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gossip := func() int {
		body, _ := json.Marshal(cluster.GossipRequest{From: "http://elsewhere:1"})
		resp, err := http.Post(ts.URL+cluster.PathGossip, "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := gossip(); code != http.StatusServiceUnavailable {
		t.Fatalf("standalone gossip: code=%d, want 503", code)
	}

	cl, err := cluster.New(cluster.Config{
		Self: ts.URL, GossipInterval: time.Hour,
		Registry: s.Metrics().Registry(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.EnableCluster(cl)
	if code := gossip(); code != http.StatusOK {
		t.Fatalf("clustered gossip: code=%d, want 200", code)
	}
}
