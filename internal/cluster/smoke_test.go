// The cluster smoke test lives in an external test package so it can drive
// real serve.Servers: internal/serve imports internal/cluster, so the
// reverse import is only legal from _test.
package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"beyondft/internal/cluster"
	"beyondft/internal/experiments"
	"beyondft/internal/serve"
)

// smokeLine mirrors the serve batch/query envelopes (external package, so
// redeclared from their JSON shape).
type smokeLine struct {
	Index      int             `json:"index,omitempty"`
	Key        string          `json:"key,omitempty"`
	Source     string          `json:"source,omitempty"`
	DurationMs float64         `json:"duration_ms,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
	Done       *struct {
		Items  int `json:"items"`
		Errors int `json:"errors"`
	} `json:"done,omitempty"`
}

func newSmokeNode(t *testing.T, addr string) *serve.Server {
	t.Helper()
	s, err := serve.New(serve.Config{
		Experiments:    experiments.DefaultConfig(),
		CacheDir:       t.TempDir(),
		L1Bytes:        8 << 20,
		Workers:        2,
		QueueDepth:     16,
		RequestTimeout: 30 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A rejoining node rebinds the port its predecessor just released; give
	// the kernel a moment if the address is still settling.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := s.Start(addr); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

// smokeCluster attaches a started R=2, gossip-driven cluster to a node.
// Peers are only seeds: membership changes flow from the gossip protocol,
// never from the test calling SetPeers.
func smokeCluster(t *testing.T, n *serve.Server, self string, seeds []string) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Self:                self,
		Peers:               seeds,
		Replication:         2,
		ForwardTimeout:      10 * time.Second,
		Backoff:             2 * time.Millisecond,
		DownFor:             100 * time.Millisecond,
		GossipInterval:      25 * time.Millisecond,
		SuspectAfter:        150 * time.Millisecond,
		DeadAfter:           350 * time.Millisecond,
		AntiEntropyInterval: 500 * time.Millisecond,
		Registry:            n.Metrics().Registry(),
		Logf:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.EnableCluster(cl)
	cl.Start()
	t.Cleanup(cl.Stop)
	return cl
}

func smokeBatch(t *testing.T, base string, lines []string) map[int]smokeLine {
	t.Helper()
	resp, err := http.Post(base+"/v1/batch", "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatalf("POST %s/v1/batch: %v", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	out := map[int]smokeLine{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sawDone := false
	for sc.Scan() {
		var line smokeLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("decode %q: %v", sc.Bytes(), err)
		}
		if line.Done != nil {
			if line.Done.Errors != 0 {
				t.Fatalf("batch finished with %d errors", line.Done.Errors)
			}
			if line.Done.Items != len(lines) {
				t.Fatalf("batch saw %d items, want %d", line.Done.Items, len(lines))
			}
			sawDone = true
			continue
		}
		if line.Error != "" {
			t.Fatalf("batch line %d error: %s", line.Index, line.Error)
		}
		out[line.Index] = line
	}
	if err := sc.Err(); err != nil || !sawDone {
		t.Fatalf("stream truncated (err=%v done=%v)", err, sawDone)
	}
	if len(out) != len(lines) {
		t.Fatalf("got %d result lines, want %d", len(out), len(lines))
	}
	return out
}

func smokeQuery(t *testing.T, base, path, body string) smokeLine {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s%s: %v", base, path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s%s: status %d: %s", base, path, resp.StatusCode, data)
	}
	var line smokeLine
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatalf("decode %q: %v", data, err)
	}
	return line
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// smokeHasAll asks a node, over the replication wire protocol itself,
// whether its cache holds every key.
func smokeHasAll(t *testing.T, base string, keys []string) bool {
	t.Helper()
	body, err := json.Marshal(cluster.HaveRequest{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+cluster.PathHave, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s%s: %v", base, cluster.PathHave, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("have status = %d", resp.StatusCode)
	}
	var hr cluster.HaveResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	for _, have := range hr.Have {
		if !have {
			return false
		}
	}
	return true
}

// TestClusterSmoke is the end-to-end acceptance check of the cluster tier
// at replication factor 2 with gossip membership: three nodes share one
// ring, a mixed query/batch workload runs against different nodes, one node
// is killed mid-run and later rejoins under its old URL with an empty
// cache. Throughout, results stay byte-identical to a standalone node and
// no spec is ever computed twice fleet-wide — in particular, the kill loses
// zero cached bytes (every key survives on a replica) and the rejoin warms
// itself entirely from peers.
func TestClusterSmoke(t *testing.T) {
	// Spec set A (phase 1) and B (post-kill phase 2). GK solves are
	// bit-identical at any worker count, so recomputation anywhere in the
	// fleet must reproduce the reference node's bytes exactly.
	var linesA, linesB []string
	for seed := 1; seed <= 12; seed++ {
		linesA = append(linesA, fmt.Sprintf(
			`{"kind":"throughput","spec":{"topo":{"kind":"jellyfish","n":12,"degree":3,"servers":2},"tm":"permutation","x":0.5,"seed":%d}}`, seed))
	}
	linesA = append(linesA,
		`{"kind":"pathstats","spec":{"topo":{"kind":"xpander","degree":4,"lift":5,"servers":3}}}`,
		`{"kind":"pathstats","spec":{"topo":{"kind":"fattree","k":4}}}`,
		`{"kind":"pathstats","spec":{"topo":{"kind":"jellyfish","n":16,"degree":4,"servers":2}}}`,
	)
	for seed := 101; seed <= 108; seed++ {
		linesB = append(linesB, fmt.Sprintf(
			`{"kind":"throughput","spec":{"topo":{"kind":"jellyfish","n":12,"degree":3,"servers":2},"tm":"permutation","x":0.5,"seed":%d}}`, seed))
	}

	// Reference: one standalone node computes everything itself.
	ref := newSmokeNode(t, "127.0.0.1:0")
	refBase := "http://" + ref.Addr()
	refA := smokeBatch(t, refBase, linesA)
	refB := smokeBatch(t, refBase, linesB)

	// The cluster: three nodes, one shared ring, R=2 with gossip.
	nodes := make([]*serve.Server, 3)
	bases := make([]string, 3)
	for i := range nodes {
		nodes[i] = newSmokeNode(t, "127.0.0.1:0")
		bases[i] = "http://" + nodes[i].Addr()
	}
	cls := make([]*cluster.Cluster, 3)
	for i, n := range nodes {
		cls[i] = smokeCluster(t, n, bases[i], bases)
	}

	// Phase 1: the full A batch against node 0, with concurrent duplicate
	// single queries against nodes 1 and 2 — the mixed workload. Exactly-once
	// must hold across all of it.
	var wg sync.WaitGroup
	var gotA map[int]smokeLine
	wg.Add(1)
	go func() {
		defer wg.Done()
		gotA = smokeBatch(t, bases[0], linesA)
	}()
	dupResults := make([]smokeLine, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"topo":{"kind":"jellyfish","n":12,"degree":3,"servers":2},"tm":"permutation","x":0.5,"seed":%d}`, i+1)
			dupResults[i] = smokeQuery(t, bases[1+i%2], "/v1/throughput", body)
		}(i)
	}
	wg.Wait()

	var allKeys []string
	for i := range linesA {
		if string(gotA[i].Result) != string(refA[i].Result) {
			t.Fatalf("phase 1 line %d differs from standalone reference:\n got %s\nwant %s", i, gotA[i].Result, refA[i].Result)
		}
		allKeys = append(allKeys, gotA[i].Key)
	}
	for i, d := range dupResults {
		if string(d.Result) != string(refA[i].Result) {
			t.Fatalf("duplicate query %d differs from reference", i)
		}
	}
	computedAt := func(n *serve.Server) int64 { return n.Metrics().Computed.Load() }
	phase1Computed := computedAt(nodes[0]) + computedAt(nodes[1]) + computedAt(nodes[2])
	if phase1Computed != int64(len(linesA)) {
		t.Fatalf("phase 1 computed %d specs fleet-wide, want exactly %d (duplicate computes!)", phase1Computed, len(linesA))
	}
	fills := nodes[0].Metrics().PeerFills.Load() + nodes[1].Metrics().PeerFills.Load() + nodes[2].Metrics().PeerFills.Load()
	if fills == 0 {
		t.Fatal("no peer cache fills in a 3-node run")
	}
	// Let the async replica pushes land before the kill: every A key must
	// reach its sibling owner so node 1's death loses nothing.
	keysAt := map[string][]string{}
	for _, k := range allKeys {
		for _, o := range cls[0].Owners(k) {
			keysAt[o] = append(keysAt[o], k)
		}
	}
	waitFor(t, "every A key to reach all its owners", 10*time.Second, func() bool {
		for base, keys := range keysAt {
			if !smokeHasAll(t, base, keys) {
				return false
			}
		}
		return true
	})

	// Kill node 1 mid-run: its gossip stops first (a live protocol would
	// keep advertising it), readiness flips, then the listener dies. The
	// survivors must notice via failed gossip exchanges — the test never
	// calls SetPeers.
	cls[1].Stop()
	nodes[1].StartDrain()
	if resp, err := http.Get(bases[1] + "/readyz"); err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining node readyz = %d, want 503", resp.StatusCode)
		}
		resp.Body.Close()
	}
	deadComputed := computedAt(nodes[1])
	if err := nodes[1].Shutdown(context.Background()); err != nil {
		t.Fatalf("kill node 1: %v", err)
	}
	waitFor(t, "survivors to evict the dead node via gossip", 15*time.Second, func() bool {
		return len(cls[0].Peers()) == 2 && len(cls[2].Peers()) == 2
	})

	// Phase 2: fresh specs B plus all of A again, through node 2 this time.
	// The dead node's share of B re-homes to live owners; every A key is
	// still cached on at least one live replica, so nothing recomputes.
	phase2 := append(append([]string{}, linesB...), linesA...)
	got2 := smokeBatch(t, bases[2], phase2)
	for i := range linesB {
		if string(got2[i].Result) != string(refB[i].Result) {
			t.Fatalf("phase 2 B line %d differs from reference", i)
		}
		allKeys = append(allKeys, got2[i].Key)
	}
	for i := range linesA {
		if string(got2[len(linesB)+i].Result) != string(refA[i].Result) {
			t.Fatalf("phase 2 A line %d differs from reference", i)
		}
	}
	totalSpecs := int64(len(linesA) + len(linesB))
	if got := computedAt(nodes[0]) + deadComputed + computedAt(nodes[2]); got != totalSpecs {
		t.Fatalf("fleet computed %d specs after phase 2, want exactly %d (a cached spec was recomputed)", got, totalSpecs)
	}

	// With R=2 on a two-node ring, replication makes both survivors hold
	// every key — the precondition for the rejoined node to warm itself
	// without a single recompute.
	waitFor(t, "both survivors to hold every key", 10*time.Second, func() bool {
		return smokeHasAll(t, bases[0], allKeys) && smokeHasAll(t, bases[2], allKeys)
	})

	// Rejoin: a brand-new process under the old URL with an EMPTY cache.
	// Gossip must refute the tombstone (incarnation bump) and re-admit it —
	// no restarts, no SetPeers, no operator resets.
	nodes[1] = newSmokeNode(t, strings.TrimPrefix(bases[1], "http://"))
	cls[1] = smokeCluster(t, nodes[1], bases[1], bases)
	waitFor(t, "the fleet to re-admit the rejoined node", 15*time.Second, func() bool {
		return len(cls[0].Peers()) == 3 && len(cls[1].Peers()) == 3 && len(cls[2].Peers()) == 3
	})

	// Phase 3: the full workload through the rejoined cold node. Every spec
	// is cached somewhere in the fleet, so the rejoined node must serve it
	// all from peers — replica probes and forwards, zero computes anywhere.
	phase3 := append(append([]string{}, linesA...), linesB...)
	got3 := smokeBatch(t, bases[1], phase3)
	for i := range linesA {
		if string(got3[i].Result) != string(refA[i].Result) {
			t.Fatalf("phase 3 A line %d differs from reference", i)
		}
	}
	for i := range linesB {
		if string(got3[len(linesA)+i].Result) != string(refB[i].Result) {
			t.Fatalf("phase 3 B line %d differs from reference", i)
		}
	}
	if got := computedAt(nodes[1]); got != 0 {
		t.Fatalf("rejoined node computed %d specs, want 0 (everything was cached fleet-wide)", got)
	}
	if got := computedAt(nodes[0]) + deadComputed + computedAt(nodes[1]) + computedAt(nodes[2]); got != totalSpecs {
		t.Fatalf("fleet computed %d specs after the rejoin, want exactly %d still", got, totalSpecs)
	}
	if nodes[1].Metrics().PeerFills.Load() == 0 {
		t.Fatal("rejoined node served the workload without a single peer fill")
	}

	// The rejoined node's /metrics expose the converged ring and the
	// replication counters.
	resp, err := http.Get(bases[1] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"beyondftd_peer_fills_total", "beyondftd_cluster_peers 3", "beyondftd_cluster_ring_share_ppm", "beyondftd_cluster_replica_pushes_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("rejoined node /metrics missing %q", want)
		}
	}
}
