package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beyondft/internal/obs"
)

// fastConfig returns a Config with millisecond-scale retry/backoff so
// failure paths run quickly under test.
func fastConfig(self string, peers ...string) Config {
	return Config{
		Self:           self,
		Peers:          peers,
		VNodes:         16,
		ForwardTimeout: 2 * time.Second,
		Retries:        1,
		Backoff:        time.Millisecond,
		Hedge:          2,
		DownFor:        50 * time.Millisecond,
		Registry:       obs.NewRegistry(),
	}
}

// keyOwnedBy brute-forces a key string whose ring owner is the wanted node.
func keyOwnedBy(t *testing.T, c *Cluster, owner string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := "probe-" + strings.Repeat("x", i%7) + time.Duration(i).String()
		if c.Owners(k)[0] == owner {
			return k
		}
	}
	t.Fatalf("no key owned by %s found", owner)
	return ""
}

func TestClusterConfigNormalization(t *testing.T) {
	c, err := New(Config{Self: "node-a:9000/", Peers: []string{"http://node-b:9000", " node-a:9000 "}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Self() != "http://node-a:9000" {
		t.Fatalf("self = %q", c.Self())
	}
	if got := c.Peers(); len(got) != 2 {
		t.Fatalf("peers = %v, want 2 normalized members", got)
	}
	if _, err := New(Config{Self: ""}); err == nil {
		t.Fatal("empty self accepted")
	}
	if _, err := New(Config{Self: "a", Peers: nil}); err != nil {
		t.Fatalf("self-only cluster rejected: %v", err)
	}
}

// TestForwardSuccess: a forward reaches the key's owner with the loop-guard
// header set and returns the peer's body verbatim.
func TestForwardSuccess(t *testing.T) {
	var gotHeader atomic.Value
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader.Store(r.Header.Get(ForwardHeader))
		w.Write([]byte(`{"ok":true}`))
	}))
	defer peer.Close()

	c, err := New(fastConfig("http://self:1", peer.URL))
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, c, peer.URL)
	data, from, err := c.Forward(context.Background(), key, "/v1/throughput", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"ok":true}` || from != peer.URL {
		t.Fatalf("data=%q from=%q", data, from)
	}
	if h := gotHeader.Load(); h != "http://self:1" {
		t.Fatalf("loop-guard header = %v, want origin self URL", h)
	}
	if got := c.Metrics().Forwards(peer.URL).Load(); got != 1 {
		t.Fatalf("forwards counter = %d, want 1", got)
	}
}

// TestForwardSelfOwned: when this node owns the key, Forward refuses with
// ErrSelf instead of sending the request to itself.
func TestForwardSelfOwned(t *testing.T) {
	c, err := New(fastConfig("http://self:1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Forward(context.Background(), "anything", "/x", nil); !errors.Is(err, ErrSelf) {
		t.Fatalf("err = %v, want ErrSelf", err)
	}
}

// TestForwardRetriesThenSucceeds: one transient 500 is absorbed by the
// bounded retry, and the peer is not marked down after recovering.
func TestForwardRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`ok`))
	}))
	defer peer.Close()

	c, err := New(fastConfig("http://self:1", peer.URL))
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, c, peer.URL)
	data, _, err := c.Forward(context.Background(), key, "/x", nil)
	if err != nil || string(data) != "ok" {
		t.Fatalf("data=%q err=%v", data, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("peer called %d times, want 2 (fail + retry)", got)
	}
	if got := c.Metrics().Retries.Load(); got != 1 {
		t.Fatalf("retries counter = %d, want 1", got)
	}
	if !c.usable(peer.URL) {
		t.Fatal("recovered peer marked down")
	}
}

// TestForwardHedgesToSuccessor: a dead owner is hedged around — the next
// distinct ring owner serves the request — and the dead peer is marked down
// so the next forward skips it without paying the connection failure again.
func TestForwardHedgesToSuccessor(t *testing.T) {
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`from-successor`))
	}))
	defer alive.Close()
	dead := httptest.NewServer(http.HandlerFunc(nil))
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	c, err := New(fastConfig("http://self:1", deadURL, alive.URL))
	if err != nil {
		t.Fatal(err)
	}
	// Find a key whose hedge chain is [dead, alive, ...] so the hedge lands
	// on the live peer, not on self.
	key := ""
	for i := 0; i < 100000 && key == ""; i++ {
		k := "hedge-" + time.Duration(i).String()
		if owners := c.ring.Load().Owners(k, 2); owners[0] == deadURL && owners[1] == alive.URL {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no key with hedge chain [dead, alive] found")
	}
	data, from, err := c.Forward(context.Background(), key, "/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "from-successor" || from != alive.URL {
		t.Fatalf("data=%q from=%q", data, from)
	}
	if c.Metrics().Hedges.Load() == 0 {
		t.Fatal("hedge not counted")
	}
	if c.usable(deadURL) {
		t.Fatal("dead peer not marked down")
	}
	if got := c.Metrics().Down(deadURL).Load(); got != 1 {
		t.Fatalf("down counter = %d, want 1", got)
	}

	// Second forward: the dead peer is skipped outright (no new attempts
	// against it), and after DownFor elapses it becomes probe-able again.
	before := c.Metrics().Forwards(deadURL).Load()
	if _, _, err := c.Forward(context.Background(), key, "/x", nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Forwards(deadURL).Load(); got != before {
		t.Fatalf("down peer was attempted again (%d -> %d)", before, got)
	}
	time.Sleep(60 * time.Millisecond)
	if !c.usable(deadURL) {
		t.Fatal("peer still down after cooldown")
	}
}

// TestForwardSaturationPropagates: a 429 from the owner is not retried, not
// hedged, and surfaces as ErrPeerSaturated so the caller sheds too.
func TestForwardSaturationPropagates(t *testing.T) {
	var calls atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer peer.Close()

	c, err := New(fastConfig("http://self:1", peer.URL))
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, c, peer.URL)
	_, _, err = c.Forward(context.Background(), key, "/x", nil)
	if !errors.Is(err, ErrPeerSaturated) {
		t.Fatalf("err = %v, want ErrPeerSaturated", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("peer called %d times, want 1 (no retry of a shed)", got)
	}
	if !c.usable(peer.URL) {
		t.Fatal("saturated peer marked down — sheds are not failures")
	}
}

// TestForwardAllDownFallsBack: when every candidate owner is unreachable the
// forward reports failure (and counts a fallback) so the engine computes
// locally; when the hedge chain instead bottoms out on this node, the
// forward reports ErrSelf.
func TestForwardAllDownFallsBack(t *testing.T) {
	deadA := httptest.NewServer(http.HandlerFunc(nil))
	deadB := httptest.NewServer(http.HandlerFunc(nil))
	urlA, urlB := deadA.URL, deadB.URL
	deadA.Close()
	deadB.Close()

	cfg := fastConfig("http://self:1", urlA, urlB)
	cfg.Hedge = 1 // owner + one hedge: chains of two
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A chain of two dead peers exhausts without reaching self.
	var exhaustKey, selfKey string
	for i := 0; i < 100000 && (exhaustKey == "" || selfKey == ""); i++ {
		k := "fall-" + time.Duration(i).String()
		owners := c.ring.Load().Owners(k, 2)
		switch {
		case exhaustKey == "" && owners[0] != c.Self() && owners[1] != c.Self():
			exhaustKey = k
		case selfKey == "" && owners[0] != c.Self() && owners[1] == c.Self():
			selfKey = k
		}
	}
	if exhaustKey == "" || selfKey == "" {
		t.Fatal("no suitable keys found")
	}
	_, _, err = c.Forward(context.Background(), exhaustKey, "/x", nil)
	if err == nil || errors.Is(err, ErrSelf) {
		t.Fatalf("err = %v, want transport failure", err)
	}
	if got := c.Metrics().Fallbacks.Load(); got != 1 {
		t.Fatalf("fallbacks counter = %d, want 1", got)
	}
	if _, _, err := c.Forward(context.Background(), selfKey, "/x", nil); !errors.Is(err, ErrSelf) {
		t.Fatalf("err = %v, want ErrSelf when the hedge chain reaches this node", err)
	}
}

// TestSetPeersRebalances: membership changes swap the ring atomically and
// refresh the ownership gauges.
func TestSetPeersRebalances(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := fastConfig("http://self:1", "http://peer-b:1")
	cfg.Registry = reg
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Peers.Load(); got != 2 {
		t.Fatalf("peers gauge = %d, want 2", got)
	}
	c.SetPeers([]string{"http://peer-b:1", "http://peer-c:1"})
	if got := len(c.Peers()); got != 3 {
		t.Fatalf("peers = %d, want 3 (self retained)", got)
	}
	if got := c.Metrics().Peers.Load(); got != 3 {
		t.Fatalf("peers gauge = %d, want 3", got)
	}
	var share int64
	for _, p := range c.Peers() {
		share += c.Metrics().RingShare(p).Load()
	}
	if share < 990_000 || share > 1_010_000 {
		t.Fatalf("ring shares sum to %d ppm, want ~1e6", share)
	}
}

// TestCallerCancelDoesNotDownPeer: a forward that fails because the
// *caller* gave up (context canceled mid-request) must not mark the peer
// down — the peer may be healthy, and blaming it would poison the hedge
// chain for DownFor. Regression: attempt used to markDown on any
// non-saturation failure, including the caller's own cancellation.
func TestCallerCancelDoesNotDownPeer(t *testing.T) {
	release := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
		w.Write([]byte(`late`))
	}))
	defer peer.Close()
	defer close(release)

	c, err := New(fastConfig("http://self:1", peer.URL))
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, c, peer.URL)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, _, err := c.Forward(ctx, key, "/x", nil); err == nil {
		t.Fatal("forward succeeded despite caller cancel")
	}
	if !c.usable(peer.URL) {
		t.Fatal("healthy peer marked down after caller cancellation")
	}
	if got := c.Metrics().Down(peer.URL).Load(); got != 0 {
		t.Fatalf("down counter = %d, want 0 (caller canceled, peer not at fault)", got)
	}
}

// TestHedgeCounterSkipsDownPeers: skipping a down-marked candidate is not a
// hedge attempt and must not inflate the Hedges counter. Regression:
// Forward used to count the hedge before the usable check.
func TestHedgeCounterSkipsDownPeers(t *testing.T) {
	deadA := httptest.NewServer(http.HandlerFunc(nil))
	deadB := httptest.NewServer(http.HandlerFunc(nil))
	urlA, urlB := deadA.URL, deadB.URL
	deadA.Close()
	deadB.Close()

	cfg := fastConfig("http://self:1", urlA, urlB)
	cfg.Hedge = 1
	cfg.Retries = -1 // no retries: each attempt fails once
	cfg.DownFor = time.Minute
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A key whose two-candidate chain is both dead peers (not self).
	var key string
	for i := 0; i < 100000 && key == ""; i++ {
		k := "skip-" + time.Duration(i).String()
		owners := c.ring.Load().Owners(k, 2)
		if owners[0] != c.Self() && owners[1] != c.Self() {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no suitable key found")
	}
	// First forward attempts both candidates: exactly one hedge (the second
	// candidate), both get down-marked.
	c.Forward(context.Background(), key, "/x", nil)
	if got := c.Metrics().Hedges.Load(); got != 1 {
		t.Fatalf("hedges after first forward = %d, want 1", got)
	}
	// Second forward skips both down-marked candidates without attempting
	// anything: the hedge counter must not move.
	c.Forward(context.Background(), key, "/x", nil)
	if got := c.Metrics().Hedges.Load(); got != 1 {
		t.Fatalf("hedges after skip-only forward = %d, want 1 (skips are not hedges)", got)
	}
}

// TestDownProbeSingleflight: when a down peer's window lapses, exactly one
// concurrent caller wins the probe; the rest keep skipping until the probe
// resolves. Regression: usable used to delete the down entry on window
// expiry, letting every waiting request pile onto a still-dead peer at
// once (thundering probe).
func TestDownProbeSingleflight(t *testing.T) {
	cfg := fastConfig("http://self:1", "http://peer:1")
	cfg.DownFor = 10 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const peer = "http://peer:1"
	c.markDown(peer, errors.New("test"))
	if c.usable(peer) {
		t.Fatal("peer usable inside the down window")
	}
	time.Sleep(20 * time.Millisecond) // window lapses

	var winners atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if c.usable(peer) {
				winners.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := winners.Load(); got != 1 {
		t.Fatalf("%d concurrent callers won the probe, want exactly 1", got)
	}

	// The losing callers stay gated while the probe is in flight…
	if c.usable(peer) {
		t.Fatal("second probe admitted while the first is in flight")
	}
	// …a released probe (caller cancel, no verdict) re-opens the slot…
	c.probeRelease(peer)
	if !c.usable(peer) {
		t.Fatal("probe slot not reclaimable after release")
	}
	// …and a successful probe clears the state entirely.
	c.markUp(peer)
	if !c.usable(peer) || !c.healthy(peer) {
		t.Fatal("peer not fully usable after markUp")
	}
}

// TestFetchRoutes holds Fetch to its routing policy, role by role: a
// non-owner forwards and returns the owner's result bytes; a forwarded
// request at a non-owner never forwards again (LoopGuard); a primary without
// siblings asks nobody; a bad envelope falls back to local compute; a shed
// propagates as ErrPeerSaturated; an R=2 primary probes its sibling's cache.
func TestFetchRoutes(t *testing.T) {
	var calls, status atomic.Int64
	var reply atomic.Value
	status.Store(http.StatusOK)
	reply.Store(`{"key":"k","source":"computed","result":{"v":7}}`)
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(int(status.Load()))
		w.Write([]byte(reply.Load().(string)))
	}))
	defer owner.Close()
	const self = "http://self:1"
	c, err := New(fastConfig(self, owner.URL))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	remote, local := keyOwnedBy(t, c, owner.URL), keyOwnedBy(t, c, self)

	if data, err := c.Fetch(ctx, remote, "/v1/throughput", []byte(`{}`), false); err != nil || string(data) != `{"v":7}` || calls.Load() != 1 {
		t.Fatalf("non-owner: data=%s err=%v after %d calls, want the owner's result after 1", data, err, calls.Load())
	}
	if data, err := c.Fetch(ctx, remote, "/v1/throughput", []byte(`{}`), true); data != nil || err != nil || calls.Load() != 1 {
		t.Fatalf("forwarded non-owner: data=%s err=%v after %d calls, want nil and no second hop", data, err, calls.Load())
	}
	if got := c.Metrics().LoopGuard.Load(); got != 1 {
		t.Fatalf("loop-guard counter = %d, want 1", got)
	}
	if data, err := c.Fetch(ctx, local, "/v1/throughput", []byte(`{}`), false); data != nil || err != nil || calls.Load() != 1 {
		t.Fatalf("R=1 primary: data=%s err=%v after %d calls, want nil and no peer asked", data, err, calls.Load())
	}
	reply.Store(`{"key":"k"}`)
	if data, err := c.Fetch(ctx, remote, "/v1/throughput", []byte(`{}`), false); data != nil || err != nil {
		t.Fatalf("envelope without result: data=%s err=%v, want nil (compute locally)", data, err)
	}
	status.Store(http.StatusTooManyRequests)
	if _, err := c.Fetch(ctx, remote, "/v1/throughput", []byte(`{}`), false); !errors.Is(err, ErrPeerSaturated) {
		t.Fatalf("shed owner: err=%v, want ErrPeerSaturated", err)
	}

	sibling := newMemStore()
	cfg := fastConfig(self, storePeer(t, sibling))
	cfg.Replication = 2
	if c, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	var warm, cold Entry
	for i := 0; cold.Key == ""; i++ {
		e := entry("j", fmt.Sprintf(`{"i":%d}`, i), "s", `{"v":2}`)
		switch {
		case c.Owners(e.Key)[0] != self:
		case warm.Key == "":
			warm = e
		default:
			cold = e
		}
	}
	sibling.Fill(warm.Key, warm.Name, warm.Spec, warm.Salt, warm.Result)
	if data, err := c.Fetch(ctx, warm.Key, "/v1/throughput", nil, false); err != nil || string(data) != `{"v":2}` {
		t.Fatalf("R=2 primary, sibling hit: data=%s err=%v, want the sibling's bytes", data, err)
	}
	if data, err := c.Fetch(ctx, cold.Key, "/v1/throughput", nil, false); data != nil || err != nil {
		t.Fatalf("R=2 primary, sibling miss: data=%s err=%v, want nil (compute locally)", data, err)
	}
}
