package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"beyondft/internal/harness"
)

// memStore is an in-memory Store that counts the calls made into it.
type memStore struct {
	mu      sync.Mutex
	entries map[string]Entry
	fills   int     // fills that stored new bytes
	loads   int     // Load calls
	hasOps  int     // Has calls
	filled  []Entry // every Fill call's arguments, in order
}

func newMemStore(es ...Entry) *memStore {
	ms := &memStore{entries: map[string]Entry{}}
	for _, e := range es {
		ms.entries[e.Key] = e
	}
	return ms
}

func (ms *memStore) Has(key string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.hasOps++
	_, ok := ms.entries[key]
	return ok
}

func (ms *memStore) Fill(key, name, spec, salt string, data json.RawMessage) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	e := Entry{Key: key, Name: name, Spec: spec, Salt: salt, Result: data}
	ms.filled = append(ms.filled, e)
	if _, had := ms.entries[key]; had {
		return true
	}
	ms.entries[key] = e
	ms.fills++
	return false
}

func (ms *memStore) Load(key string) (Entry, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.loads++
	e, ok := ms.entries[key]
	return e, ok
}

func (ms *memStore) Keys() ([]string, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	keys := make([]string, 0, len(ms.entries))
	for k := range ms.entries {
		keys = append(keys, k)
	}
	return keys, nil
}

func (ms *memStore) has(key string) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	_, ok := ms.entries[key]
	return ok
}

func (ms *memStore) drop(key string) {
	ms.mu.Lock()
	delete(ms.entries, key)
	ms.mu.Unlock()
}

func (ms *memStore) counts() (fills, loads int) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.fills, ms.loads
}

// entry builds a well-formed entry: its key is the content address of its
// (name, spec, salt) triple, as the fill endpoint demands.
func entry(name, spec, salt, result string) Entry {
	return Entry{Key: harness.Key(name, spec, salt), Name: name, Spec: spec, Salt: salt, Result: json.RawMessage(result)}
}

// storePeer serves the replication plane over store, standalone, as an
// httptest peer closed with the test.
func storePeer(t *testing.T, store Store) string {
	t.Helper()
	peer := httptest.NewServer(Handler(store, func() *Cluster { return nil }))
	t.Cleanup(peer.Close)
	return peer.URL
}

// replCluster builds a started R=2 cluster whose single peer is peerURL,
// cleaned up with the test.
func replCluster(t *testing.T, peerURL string) *Cluster {
	t.Helper()
	cfg := fastConfig("http://self:1", peerURL)
	cfg.Replication = 2
	cfg.AntiEntropyInterval = time.Hour // manual passes only
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func waitQuiesced(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.repl.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replication queue never drained (%d pending)", c.repl.pending.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicateAsyncPushes: a fresh entry is pushed to the sibling owner in
// the background, and a second push of the same key is a had=true no-op —
// replica fill is idempotent.
func TestReplicateAsyncPushes(t *testing.T) {
	store := newMemStore()
	c := replCluster(t, storePeer(t, store))

	e := entry("job", "{}", "s", `{"v":1}`)
	c.ReplicateAsync(e)
	waitQuiesced(t, c)
	if !store.has(e.Key) {
		t.Fatal("entry not replicated to the sibling owner")
	}
	if got := c.Metrics().ReplicaPushes.Load(); got != 1 {
		t.Fatalf("replica pushes = %d, want 1", got)
	}

	// Idempotence: the same entry again reaches the peer, which reports Had.
	c.ReplicateAsync(e)
	waitQuiesced(t, c)
	if got, _ := store.counts(); got != 1 {
		t.Fatalf("store accepted %d fills, want 1 (duplicate must be a no-op)", got)
	}
	if got := c.Metrics().ReplicaPushes.Load(); got != 2 {
		t.Fatalf("replica pushes = %d, want 2 (push happened, receiver deduped)", got)
	}
}

// TestReplicateAsyncSingleOwnerNoop: with R=1 nothing replicates.
func TestReplicateAsyncSingleOwnerNoop(t *testing.T) {
	store := newMemStore()
	cfg := fastConfig("http://self:1", storePeer(t, store))
	c, err := New(cfg) // Replication defaults to 1
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	e := entry("j", "{}", "s", `1`)
	c.ReplicateAsync(e)
	time.Sleep(20 * time.Millisecond)
	if store.has(e.Key) {
		t.Fatal("R=1 cluster replicated an entry")
	}
}

// TestFetchSibling: the cache-only sibling probe returns a held entry, and
// reports a clean miss (not an error) for an absent one.
func TestFetchSibling(t *testing.T) {
	warm := entry("j", `{"warm":1}`, "s", `{"v":2}`)
	c := replCluster(t, storePeer(t, newMemStore(warm)))

	e, ok := c.FetchSibling(context.Background(), warm.Key)
	if !ok || string(e.Result) != `{"v":2}` {
		t.Fatalf("sibling fetch = %+v ok=%v, want the stored entry", e, ok)
	}
	if _, ok := c.FetchSibling(context.Background(), harness.Key("j", `{"cold":1}`, "s")); ok {
		t.Fatal("sibling fetch invented an absent entry")
	}
	if probes := c.Metrics().ReplicaProbes.Load(); probes != 2 {
		t.Fatalf("probes = %d, want 2", probes)
	}
	if hits := c.Metrics().ReplicaProbeHits.Load(); hits != 1 {
		t.Fatalf("probe hits = %d, want 1", hits)
	}
}

// TestAntiEntropyPass: a pass offers local entries to the sibling owner and
// pushes exactly the ones it lacks.
func TestAntiEntropyPass(t *testing.T) {
	both := entry("j", `{"both":1}`, "s", `1`)
	onlyLocal := entry("j", `{"only-local":1}`, "s", `2`)
	store := newMemStore(both)
	c := replCluster(t, storePeer(t, store))

	c.SetStore(newMemStore(both, onlyLocal))
	c.antiEntropyPass(context.Background())
	if !store.has(onlyLocal.Key) {
		t.Fatal("anti-entropy did not push the missing entry")
	}
	if got := c.Metrics().AntiEntropyFills.Load(); got != 1 {
		t.Fatalf("anti-entropy fills = %d, want 1 (the already-present key must be skipped)", got)
	}
	if got, _ := store.counts(); got != 1 {
		t.Fatalf("store accepted %d fills, want 1", got)
	}
}

// TestAntiEntropyLoadsOnlyMissing: a pass asks the sibling about keys and
// reads from the local store only the entries the sibling lacks — over a
// fleet that already holds every key it reads nothing. N spans two have
// batches.
func TestAntiEntropyLoadsOnlyMissing(t *testing.T) {
	const n = haveBatch + 44
	var es []Entry
	for i := 0; i < n; i++ {
		es = append(es, entry("j", fmt.Sprintf(`{"i":%d}`, i), "s", fmt.Sprintf(`{"v":%d}`, i)))
	}
	sibling := newMemStore(es...)
	c := replCluster(t, storePeer(t, sibling))
	local := newMemStore(es...)
	c.SetStore(local)

	c.antiEntropyPass(context.Background())
	if _, loads := local.counts(); loads != 0 {
		t.Fatalf("sibling holds every key: %d loads, want 0", loads)
	}
	if fills, _ := sibling.counts(); fills != 0 {
		t.Fatalf("sibling holds every key: %d fills, want 0", fills)
	}

	sibling.drop(es[7].Key)
	c.antiEntropyPass(context.Background())
	if _, loads := local.counts(); loads != 1 {
		t.Fatalf("one key missing: %d loads, want 1", loads)
	}
	if fills, _ := sibling.counts(); fills != 1 || !sibling.has(es[7].Key) {
		t.Fatalf("one key missing: %d fills, want 1 of the missing key", fills)
	}
}

// TestReplicatorQueueOverflowDrops: the push queue is lossy under overload
// (drops are counted, anti-entropy heals later) instead of blocking the
// serving path.
func TestReplicatorQueueOverflowDrops(t *testing.T) {
	cfg := fastConfig("http://self:1", "http://peer:1")
	cfg.Replication = 2
	c, err := New(cfg) // never started: the queue only fills
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < replQueueDepth+10; i++ {
		c.ReplicateAsync(Entry{Key: "k", Name: "j", Spec: "{}", Salt: "s", Result: json.RawMessage(`1`)})
	}
	if got := c.Metrics().ReplicaDrops.Load(); got != 10 {
		t.Fatalf("replica drops = %d, want 10", got)
	}
	if got := c.repl.pending.Load(); got != replQueueDepth {
		t.Fatalf("pending = %d, want %d", got, replQueueDepth)
	}
}
