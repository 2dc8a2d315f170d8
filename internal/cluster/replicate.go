package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Replication data plane. Four peer-to-peer endpoints, spoken by this file
// and served by Handler (handler.go):
//
//	POST PathFill   — push one entry to a replica owner (idempotent:
//	                  content-addressed keys make duplicate fills no-ops)
//	GET  PathEntry+key — cache-only read of one entry; never computes,
//	                  never forwards, so it is loop-safe by construction
//	POST PathHave   — bulk "which of these keys do you have" for
//	                  anti-entropy batching
//	POST PathGossip — membership table exchange
const (
	// Prefix is the plane's namespace: a server mounts Handler here.
	Prefix     = "/v1/cluster/"
	PathFill   = Prefix + "fill"
	PathEntry  = Prefix + "entry/" // + key
	PathHave   = Prefix + "have"
	PathGossip = Prefix + "gossip"
)

// Entry is one cached result in wire form: the full (name, spec, salt)
// triple travels with the bytes so the receiver can rederive the content
// address and refuse mismatched fills.
type Entry struct {
	Key    string          `json:"key"`
	Name   string          `json:"name"`
	Spec   string          `json:"spec"`
	Salt   string          `json:"salt"`
	Result json.RawMessage `json:"result"`
}

// FillResponse acknowledges a PathFill push.
type FillResponse struct {
	// Had reports the receiver already held the key (the push was a no-op).
	Had bool `json:"had"`
}

// HaveRequest asks which of Keys the receiver holds.
type HaveRequest struct {
	Keys []string `json:"keys"`
}

// HaveResponse answers a HaveRequest, aligned with the request's Keys.
type HaveResponse struct {
	Have []bool `json:"have"`
}

// GossipRequest carries one node's membership table to a peer.
type GossipRequest struct {
	From    string   `json:"from"`
	Members []Member `json:"members"`
}

// GossipResponse returns the receiver's (post-merge) table.
type GossipResponse struct {
	Members []Member `json:"members"`
}

// haveBatch bounds one PathHave request during anti-entropy.
const haveBatch = 256

// replJob is one queued replica push.
type replJob struct {
	entry   Entry
	targets []string // sibling owners to push to
}

// replicator pushes fresh entries to sibling replica owners in the
// background. The queue is bounded and lossy: a drop only delays
// replication until the next anti-entropy pass, so blocking the serving
// path on it would be the wrong trade.
type replicator struct {
	c       *Cluster
	jobs    chan replJob
	pending atomic.Int64 // queued + in-flight pushes
}

const (
	replQueueDepth = 1024
	replWorkers    = 2
)

func newReplicator(c *Cluster) *replicator {
	return &replicator{c: c, jobs: make(chan replJob, replQueueDepth)}
}

func (r *replicator) start(ctx context.Context, wg *sync.WaitGroup) {
	for i := 0; i < replWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case job := <-r.jobs:
					r.run(ctx, job)
					r.pending.Add(-1)
				}
			}
		}()
	}
}

func (r *replicator) enqueue(job replJob) {
	r.pending.Add(1)
	select {
	case r.jobs <- job:
	default:
		r.pending.Add(-1)
		r.c.metrics.ReplicaDrops.Add(1)
	}
}

func (r *replicator) run(ctx context.Context, job replJob) {
	for _, peer := range job.targets {
		if !r.c.healthy(peer) {
			r.c.metrics.ReplicaPushErrors.Add(1)
			continue // anti-entropy will heal it once the peer recovers
		}
		if _, err := r.c.pushFill(ctx, peer, job.entry); err != nil {
			r.c.metrics.ReplicaPushErrors.Add(1)
			r.c.logf("cluster: replica push key=%.12s… to %s failed: %v", job.entry.Key, peer, err)
		} else {
			r.c.metrics.ReplicaPushes.Add(1)
		}
	}
}

// ReplicateAsync schedules entry for push to key's sibling replica owners
// (every owner except this node). Call it after a fresh compute or a fill
// that made this node an owner of new bytes; with R=1 it is a no-op.
func (c *Cluster) ReplicateAsync(e Entry) {
	if c.cfg.Replication <= 1 {
		return
	}
	var targets []string
	for _, o := range c.Owners(e.Key) {
		if o != c.self {
			targets = append(targets, o)
		}
	}
	if len(targets) == 0 {
		return
	}
	c.repl.enqueue(replJob{entry: e, targets: targets})
}

// FetchSibling tries to read key from its other replica owners' caches
// (cache-only: the peer never computes or forwards). It returns the first
// hit, or ok=false when no sibling has the bytes. This is the primary's
// last step before a cold compute — it is what makes a freshly rejoined
// owner warm itself from its siblings instead of recomputing.
func (c *Cluster) FetchSibling(ctx context.Context, key string) (Entry, bool) {
	if c.cfg.Replication <= 1 {
		return Entry{}, false
	}
	for _, o := range c.Owners(key) {
		if o == c.self || !c.healthy(o) {
			continue
		}
		c.metrics.ReplicaProbes.Add(1)
		e, ok, err := c.fetchEntry(ctx, o, key)
		if err != nil {
			c.logf("cluster: sibling probe key=%.12s… at %s: %v", key, o, err)
			continue
		}
		if ok {
			c.metrics.ReplicaProbeHits.Add(1)
			return e, true
		}
	}
	return Entry{}, false
}

// pushFill POSTs one entry to peer's fill endpoint.
func (c *Cluster) pushFill(ctx context.Context, peer string, e Entry) (had bool, err error) {
	body, err := json.Marshal(&e)
	if err != nil {
		return false, err
	}
	var resp FillResponse
	if err := c.postJSON(ctx, peer, PathFill, body, &resp); err != nil {
		return false, err
	}
	return resp.Had, nil
}

// fetchEntry GETs one entry from peer's cache-only read endpoint.
// A 404 is (Entry{}, false, nil): the peer is fine, it just lacks the key.
func (c *Cluster) fetchEntry(ctx context.Context, peer, key string) (Entry, bool, error) {
	tctx, cancel := context.WithTimeout(ctx, c.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodGet, peer+PathEntry+key, nil)
	if err != nil {
		return Entry{}, false, err
	}
	req.Header.Set(ForwardHeader, c.self)
	resp, err := c.client.Do(req)
	if err != nil {
		return Entry{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var e Entry
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxForwardResponse)).Decode(&e); err != nil {
			return Entry{}, false, fmt.Errorf("peer %s: decode entry: %w", peer, err)
		}
		return e, true, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return Entry{}, false, nil
	default:
		io.Copy(io.Discard, resp.Body)
		return Entry{}, false, fmt.Errorf("peer %s: entry status %d", peer, resp.StatusCode)
	}
}

// queryHave asks peer which of keys it holds.
func (c *Cluster) queryHave(ctx context.Context, peer string, keys []string) ([]bool, error) {
	body, err := json.Marshal(&HaveRequest{Keys: keys})
	if err != nil {
		return nil, err
	}
	var resp HaveResponse
	if err := c.postJSON(ctx, peer, PathHave, body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Have) != len(keys) {
		return nil, fmt.Errorf("peer %s: have response length %d, want %d", peer, len(resp.Have), len(keys))
	}
	return resp.Have, nil
}

// gossipExchange is the HTTP ExchangeFunc wired into Membership.
func (c *Cluster) gossipExchange(ctx context.Context, peer string, ours []Member) ([]Member, error) {
	body, err := json.Marshal(&GossipRequest{From: c.self, Members: ours})
	if err != nil {
		return nil, err
	}
	var resp GossipResponse
	if err := c.postJSON(ctx, peer, PathGossip, body, &resp); err != nil {
		c.metrics.GossipFailures.Add(1)
		return nil, err
	}
	c.metrics.Gossips.Add(1)
	return resp.Members, nil
}

// postJSON POSTs body to peer+path under the forward timeout and decodes a
// 200 response into out.
func (c *Cluster) postJSON(ctx context.Context, peer, path string, body []byte, out any) error {
	tctx, cancel := context.WithTimeout(ctx, c.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, c.self)
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("peer %s: %s status %d", peer, path, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxForwardResponse)).Decode(out); err != nil {
		return fmt.Errorf("peer %s: decode %s response: %w", peer, path, err)
	}
	return nil
}

// antiEntropyLoop re-replicates under-replicated keys: after every ring
// change (debounced) and on a slow timer, it walks the local cache's keys
// and offers each to the key's current owners, pushing the ones they
// lack. Together with the synchronous push on fresh computes this restores
// R copies of every key after any membership change, with no operator
// involvement — the tentpole's "no cold recomputes" guarantee rests on it.
func (c *Cluster) antiEntropyLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.AntiEntropyInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.ringChanged:
			// Debounce: membership changes arrive in bursts (gossip rounds).
			select {
			case <-time.After(c.cfg.AntiEntropyInterval / 4):
			case <-ctx.Done():
				return
			}
			c.antiEntropyPass(ctx)
		case <-t.C:
			c.antiEntropyPass(ctx)
		}
	}
}

// antiEntropyPass walks the local keys, groups them by target owner, asks
// each owner which it lacks (batched), and loads and pushes only those: a
// pass over a fleet that already holds R copies reads no entry.
func (c *Cluster) antiEntropyPass(ctx context.Context) {
	sp := c.store.Load()
	if sp == nil || c.cfg.Replication <= 1 {
		return
	}
	store := *sp
	keys, err := store.Keys()
	if err != nil {
		c.logf("cluster: anti-entropy walk: %v", err)
		return
	}
	byPeer := map[string][]string{}
	for _, k := range keys {
		for _, o := range c.Owners(k) {
			if o != c.self && c.healthy(o) {
				byPeer[o] = append(byPeer[o], k)
			}
		}
	}
	filled := 0
	for peer, keys := range byPeer {
		for lo := 0; lo < len(keys); lo += haveBatch {
			batch := keys[lo:min(lo+haveBatch, len(keys))]
			have, err := c.queryHave(ctx, peer, batch)
			if err != nil {
				c.logf("cluster: anti-entropy have at %s: %v", peer, err)
				break // peer trouble: skip its remaining batches this pass
			}
			for i, h := range have {
				if h {
					continue
				}
				e, ok := store.Load(batch[i])
				if !ok {
					continue // raced with prune, or corrupt: nothing to offer
				}
				if _, err := c.pushFill(ctx, peer, e); err != nil {
					c.metrics.ReplicaPushErrors.Add(1)
					c.logf("cluster: anti-entropy fill key=%.12s… to %s: %v", e.Key, peer, err)
					continue
				}
				filled++
				c.metrics.AntiEntropyFills.Add(1)
			}
			if ctx.Err() != nil {
				return
			}
		}
	}
	c.metrics.AntiEntropyPasses.Add(1)
	if filled > 0 {
		c.logf("cluster: anti-entropy pass filled %d entries", filled)
	}
}
