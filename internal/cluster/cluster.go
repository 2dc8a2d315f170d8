package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beyondft/internal/obs"
)

// ForwardHeader marks a request that has already been forwarded once by a
// peer. Receivers must serve it locally, whatever their own ring says: two
// nodes that momentarily disagree on membership could otherwise bounce a
// request between themselves forever. The value is the origin node's ID,
// for logs.
const ForwardHeader = "X-Beyondftd-Forwarded"

// Forwarded reports whether r arrived via a peer forward (loop guard).
func Forwarded(r *http.Request) bool { return r.Header.Get(ForwardHeader) != "" }

var (
	// ErrSelf reports that forwarding bottomed out on this node itself (the
	// key's live owner chain leads here): the caller should compute locally.
	ErrSelf = errors.New("cluster: key is owned locally")
	// ErrPeerSaturated reports that the key's owner shed the forwarded
	// request with 429. The caller should propagate the shed rather than
	// compute locally — if the fleet is out of capacity, absorbing the
	// owner's rejections locally would defeat admission control.
	ErrPeerSaturated = errors.New("cluster: owner saturated")
)

// maxForwardResponse caps how many bytes a peer response may carry (a
// defensive bound; real envelopes are a few KB).
const maxForwardResponse = 64 << 20

// Config configures a Cluster.
type Config struct {
	// Self is this node's advertised base URL; it must appear in Peers
	// (it is added if absent).
	Self string
	// Peers are the base URLs of the initial ring members, including Self.
	// With gossip enabled (GossipInterval > 0) they are only seeds: the
	// membership protocol takes over and the ring tracks live nodes.
	Peers []string
	// VNodes is the number of virtual nodes per peer (0 = DefaultVNodes).
	VNodes int
	// Replication is the number of distinct ring owners per key (R). All R
	// owners serve the key locally; fresh computes replicate to the sibling
	// owners, so any R-1 node deaths lose no cached bytes. 0 or 1 means
	// single ownership (the pre-replication behavior).
	Replication int
	// ForwardTimeout bounds one forward attempt to one peer (0 = 15s).
	ForwardTimeout time.Duration
	// Retries is how many extra attempts a transiently failing peer gets
	// before the forward hedges to the next owner (< 0 = 0; default 1).
	Retries int
	// Backoff is the sleep before the first retry, doubling per retry
	// (0 = 25ms).
	Backoff time.Duration
	// Hedge is how many successor owners to try after the R-owner set
	// (0 = 1; the owners plus one hedge survive any single node failure).
	Hedge int
	// DownFor is how long a peer is skipped after a failed forward before
	// being probed again (0 = 1s). Skipping turns a dead peer's cost from
	// one timeout per request into one per DownFor.
	DownFor time.Duration
	// GossipInterval is the membership gossip period; 0 disables gossip and
	// freezes membership at Peers (plus explicit SetPeers calls).
	GossipInterval time.Duration
	// SuspectAfter is how long an alive member may go unrefreshed before it
	// is suspected (0 = 5×GossipInterval).
	SuspectAfter time.Duration
	// DeadAfter is how long a suspect stays suspected before it is declared
	// dead and leaves the ring (0 = 5×GossipInterval).
	DeadAfter time.Duration
	// AntiEntropyInterval is the period of the background re-replication
	// pass (0 = 10×GossipInterval, or 30s without gossip). Each pass offers
	// every locally cached entry to the key's current owners and pushes the
	// ones they lack, so membership changes restore the replication factor
	// without operator intervention.
	AntiEntropyInterval time.Duration
	// Registry receives cluster metrics (nil disables).
	Registry *obs.Registry
	// Client overrides the forwarding HTTP client (tests); nil builds one.
	Client *http.Client
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// peerHealth is one peer's failure-detector state on the forwarding path
// (distinct from gossip membership: this reacts per-request within
// milliseconds; gossip converges the ring within seconds).
type peerHealth struct {
	until        time.Time // skip the peer until this instant
	probing      bool      // one probe request is in flight past the window
	probeExpires time.Time // safety valve: a stuck probe frees the slot here
}

// Cluster is one node's view of the fleet: the shared ring, the forwarding
// transport, per-peer health, gossip membership and the replication engine.
type Cluster struct {
	cfg     Config
	self    string
	ring    atomic.Pointer[Ring]
	client  *http.Client
	metrics *Metrics
	mem     *Membership
	repl    *replicator

	// store is this node's local cache (SetStore): what anti-entropy
	// offers to the key's other owners. Nil disables the pass.
	store atomic.Pointer[Store]

	// ringChanged wakes the anti-entropy loop after a membership change.
	ringChanged chan struct{}

	lifecycle sync.Mutex
	stop      context.CancelFunc
	loops     sync.WaitGroup

	mu   sync.Mutex
	down map[string]*peerHealth
}

// New validates cfg and builds a node's cluster view. Background loops
// (gossip, replication pushes, anti-entropy) start with Start.
func New(cfg Config) (*Cluster, error) {
	cfg.Self = normalizeURL(cfg.Self)
	if cfg.Self == "" {
		return nil, errors.New("cluster: empty self URL")
	}
	peers := make([]string, 0, len(cfg.Peers)+1)
	for _, p := range cfg.Peers {
		if u := normalizeURL(p); u != "" {
			peers = append(peers, u)
		}
	}
	found := false
	for _, p := range peers {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		peers = append(peers, cfg.Self)
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 15 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 1
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 25 * time.Millisecond
	}
	if cfg.Hedge <= 0 {
		cfg.Hedge = 1
	}
	if cfg.DownFor <= 0 {
		cfg.DownFor = time.Second
	}
	if cfg.GossipInterval > 0 {
		if cfg.SuspectAfter <= 0 {
			cfg.SuspectAfter = 5 * cfg.GossipInterval
		}
		if cfg.DeadAfter <= 0 {
			cfg.DeadAfter = 5 * cfg.GossipInterval
		}
	}
	if cfg.AntiEntropyInterval <= 0 {
		if cfg.GossipInterval > 0 {
			cfg.AntiEntropyInterval = 10 * cfg.GossipInterval
		} else {
			cfg.AntiEntropyInterval = 30 * time.Second
		}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	c := &Cluster{
		cfg:         cfg,
		self:        cfg.Self,
		client:      client,
		metrics:     NewMetrics(cfg.Registry),
		down:        map[string]*peerHealth{},
		ringChanged: make(chan struct{}, 1),
	}
	c.repl = newReplicator(c)
	if cfg.GossipInterval > 0 {
		seeds := make([]string, 0, len(peers))
		for _, p := range peers {
			if p != cfg.Self {
				seeds = append(seeds, p)
			}
		}
		c.mem = NewMembership(MembershipConfig{
			Self:         cfg.Self,
			Seeds:        seeds,
			SuspectAfter: cfg.SuspectAfter,
			DeadAfter:    cfg.DeadAfter,
			Logf:         cfg.Logf,
		})
		c.mem.OnChange(func(live []string) {
			c.metrics.Suspects.Set(int64(c.mem.SuspectCount()))
			c.SetPeers(live)
		})
		c.mem.SetExchange(c.gossipExchange)
	}
	c.setRing(NewRing(peers, cfg.VNodes))
	return c, nil
}

// normalizeURL canonicalizes a peer address: trims whitespace and trailing
// slashes and defaults the scheme to http, so "host:8080", "host:8080/" and
// "http://host:8080" are one ring member, not three.
func normalizeURL(u string) string {
	u = strings.TrimRight(strings.TrimSpace(u), "/")
	if u == "" {
		return ""
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// Self returns this node's advertised URL.
func (c *Cluster) Self() string { return c.self }

// Peers returns the current ring membership (sorted).
func (c *Cluster) Peers() []string { return c.ring.Load().Nodes() }

// Metrics returns the cluster metric set.
func (c *Cluster) Metrics() *Metrics { return c.metrics }

// Replication returns the configured owners-per-key factor R.
func (c *Cluster) Replication() int { return c.cfg.Replication }

// Owners returns the key's R distinct replica owners in ring order; the
// first is the primary (the node that computes fresh results).
func (c *Cluster) Owners(key string) []string {
	return c.ring.Load().Owners(key, c.cfg.Replication)
}

// SetStore hands the cluster this node's local cache, the one Handler
// serves: anti-entropy offers its keys to their other owners. Safe to call
// before or after Start.
func (c *Cluster) SetStore(s Store) { c.store.Store(&s) }

// SetPeers replaces the ring membership (Self is always retained).
// Ownership moves deterministically and minimally (see ring_test.go), so a
// rolling membership change re-homes only its share of the keyspace. With
// gossip enabled this is called by the membership protocol; calling it
// directly also works (static deployments, tests).
func (c *Cluster) SetPeers(peers []string) {
	all := make([]string, 0, len(peers)+1)
	for _, p := range peers {
		if u := normalizeURL(p); u != "" {
			all = append(all, u)
		}
	}
	all = append(all, c.self)
	c.setRing(NewRing(all, c.cfg.VNodes))
}

func (c *Cluster) setRing(r *Ring) {
	c.ring.Store(r)
	c.metrics.setRing(r)
	c.logf("cluster: %s self=%s", r, c.self)
	select {
	case c.ringChanged <- struct{}{}:
	default:
	}
}

// Start launches the background loops: replication push workers, the
// gossip membership loop (when configured) and the anti-entropy pass.
// Stop (or nothing, for a process-lifetime cluster) ends them.
func (c *Cluster) Start() {
	c.lifecycle.Lock()
	defer c.lifecycle.Unlock()
	if c.stop != nil {
		return // already started
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.stop = cancel
	c.repl.start(ctx, &c.loops)
	if c.mem != nil {
		c.loops.Add(1)
		go func() {
			defer c.loops.Done()
			c.gossipLoop(ctx)
		}()
	}
	c.loops.Add(1)
	go func() {
		defer c.loops.Done()
		c.antiEntropyLoop(ctx)
	}()
}

// Stop ends the background loops and waits for them to exit. Safe to call
// multiple times or without Start.
func (c *Cluster) Stop() {
	c.lifecycle.Lock()
	stop := c.stop
	c.stop = nil
	c.lifecycle.Unlock()
	if stop != nil {
		stop()
		c.loops.Wait()
	}
}

// gossipLoop drives the SWIM-lite membership rounds.
func (c *Cluster) gossipLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.mem.Tick(ctx)
		}
	}
}

// Fetch is the routing policy for a key this node missed in its local
// tiers. It returns the key's result bytes from elsewhere in the fleet, nil
// when this node should compute the key itself, or an error wrapping
// ErrPeerSaturated when the owner shed the request. path and body re-issue
// the query at a peer; forwarded says the request has already taken its one
// hop. By this node's role for the key:
//
//   - primary owner (first of the key's R owners): probe the sibling owners'
//     caches (cache-only, never computes) — a freshly joined or rejoined
//     primary warms itself from its replicas instead of recomputing bytes
//     the fleet already has. With no siblings there is nobody to ask.
//   - sibling owner or non-owner: forward to the owner chain; the owner's
//     singleflight makes the compute exactly-once fleet-wide. A dead primary
//     leads the chain back here (ErrSelf): compute locally.
//   - already forwarded: never forward again. An owner keeps the cache-only
//     sibling probe (it cannot cascade); a non-owner means the ownership
//     views disagree while membership changes, which LoopGuard counts, and
//     it computes locally — still correct, results are content-addressed.
//
// A forward that fails for any other reason falls back to local compute.
// Remote work shows as a "peer-forward" span under ctx's span.
func (c *Cluster) Fetch(ctx context.Context, key, path string, body []byte, forwarded bool) (json.RawMessage, error) {
	owners := c.Owners(key)
	pos := slices.Index(owners, c.self)
	if pos == 0 || (forwarded && pos > 0) {
		if len(owners) <= 1 {
			return nil, nil
		}
		defer obs.SpanFromContext(ctx).Child("peer-forward").End()
		e, _ := c.FetchSibling(ctx, key)
		return e.Result, nil
	}
	if forwarded {
		c.metrics.LoopGuard.Add(1)
		return nil, nil
	}
	defer obs.SpanFromContext(ctx).Child("peer-forward").End()
	data, peer, err := c.Forward(ctx, key, path, body)
	switch {
	case errors.Is(err, ErrSelf):
		return nil, nil
	case errors.Is(err, ErrPeerSaturated):
		return nil, err
	case err != nil:
		if ctx.Err() == nil {
			c.logf("%v (computing locally)", err)
		}
		return nil, nil
	}
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &env); err != nil || len(env.Result) == 0 {
		c.logf("cluster: peer %s: response envelope without result (computing locally)", peer)
		return nil, nil
	}
	return env.Result, nil
}

// Forward sends body to path on one of key's owners and returns the peer's
// response body. Candidates are the key's R replica owners followed by
// Hedge successors; a transiently failing candidate is retried with
// backoff, then the forward hedges down the chain. It returns ErrSelf when
// the live candidate chain reaches this node (compute locally),
// ErrPeerSaturated when the owner shed the request, and a joined error when
// every candidate failed (the caller falls back to computing locally —
// availability over strict ownership).
func (c *Cluster) Forward(ctx context.Context, key, path string, body []byte) (data []byte, peer string, err error) {
	owners := c.ring.Load().Owners(key, c.cfg.Replication+c.cfg.Hedge)
	var lastErr error
	for i, p := range owners {
		if p == c.self {
			return nil, "", ErrSelf
		}
		if !c.usable(p) {
			lastErr = fmt.Errorf("peer %s marked down", p)
			continue
		}
		// Count a hedge only when a non-first candidate is actually
		// attempted; skipping a down-marked peer is not a hedge attempt.
		if i > 0 {
			c.metrics.Hedges.Add(1)
		}
		data, err := c.attempt(ctx, p, path, body)
		if err == nil {
			return data, p, nil
		}
		if errors.Is(err, ErrPeerSaturated) {
			return nil, p, err
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	c.metrics.Fallbacks.Add(1)
	if lastErr == nil {
		lastErr = errors.New("no candidate owners")
	}
	return nil, "", fmt.Errorf("cluster: forward key=%.12s…: %w", key, lastErr)
}

// attempt tries one peer up to 1+Retries times with exponential backoff,
// marking the peer down when all attempts fail so subsequent forwards skip
// straight to hedging until the peer has had DownFor to recover. A failure
// caused by the *caller's* context (cancel or deadline) never down-marks:
// the peer may be perfectly healthy, and blaming it would make every
// impatient client poison the hedge chain for DownFor.
func (c *Cluster) attempt(ctx context.Context, peer, path string, body []byte) ([]byte, error) {
	var lastErr error
	backoff := c.cfg.Backoff
	for try := 0; try <= c.cfg.Retries; try++ {
		if try > 0 {
			c.metrics.Retries.Add(1)
			select {
			case <-time.After(backoff):
				backoff *= 2
			case <-ctx.Done():
				c.probeRelease(peer)
				return nil, ctx.Err()
			}
		}
		c.metrics.Forwards(peer).Add(1)
		data, retryable, err := c.once(ctx, peer, path, body)
		if err == nil {
			c.markUp(peer)
			return data, nil
		}
		c.metrics.ForwardErrors(peer).Add(1)
		lastErr = err
		if !retryable || ctx.Err() != nil {
			break
		}
	}
	switch {
	case errors.Is(lastErr, ErrPeerSaturated):
		// A shed proves the peer is alive, just busy.
		c.markUp(peer)
	case ctx.Err() != nil:
		// Caller gave up; release any probe slot but don't blame the peer.
		c.probeRelease(peer)
	default:
		c.markDown(peer, lastErr)
	}
	return nil, lastErr
}

// once performs a single forward attempt under the per-peer timeout.
func (c *Cluster) once(ctx context.Context, peer, path string, body []byte) (data []byte, retryable bool, err error) {
	tctx, cancel := context.WithTimeout(ctx, c.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, c.self)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardResponse))
		if err != nil {
			return nil, true, fmt.Errorf("peer %s: read response: %w", peer, err)
		}
		return data, false, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return nil, false, fmt.Errorf("peer %s: %w", peer, ErrPeerSaturated)
	default:
		io.Copy(io.Discard, resp.Body)
		// 5xx may be transient (a peer mid-drain answers 503); 4xx will not
		// improve on retry.
		return nil, resp.StatusCode >= 500, fmt.Errorf("peer %s: status %d", peer, resp.StatusCode)
	}
}

// usable reports whether a peer should be tried. Once the down-window has
// elapsed, exactly one caller wins the probe slot and carries the probe;
// everyone else keeps skipping until the probe resolves (markUp/markDown)
// or its safety expiry passes — without the gate, every concurrent request
// would pile onto a still-dead peer the instant the window lapsed.
func (c *Cluster) usable(peer string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, bad := c.down[peer]
	if !bad {
		return true
	}
	now := time.Now()
	if now.Before(st.until) {
		return false
	}
	if st.probing && now.Before(st.probeExpires) {
		return false
	}
	st.probing = true
	st.probeExpires = now.Add(c.probeBudget())
	return true
}

// healthy is the read-only counterpart of usable: it never claims the probe
// slot, so background passes (anti-entropy, sibling fetches) can consult
// peer health without starving the forward path's single probe.
func (c *Cluster) healthy(peer string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, bad := c.down[peer]
	return !bad || time.Now().After(st.until)
}

// probeBudget bounds how long a probe may hold the slot before another
// caller may try: the worst-case attempt time plus slack.
func (c *Cluster) probeBudget() time.Duration {
	return c.cfg.ForwardTimeout*time.Duration(1+c.cfg.Retries) + c.cfg.DownFor
}

// probeRelease frees the probe slot without re-arming the down window, for
// probes that ended without a verdict (caller cancellation).
func (c *Cluster) probeRelease(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.down[peer]; ok {
		st.probing = false
	}
}

func (c *Cluster) markDown(peer string, cause error) {
	c.mu.Lock()
	_, already := c.down[peer]
	c.down[peer] = &peerHealth{until: time.Now().Add(c.cfg.DownFor)}
	c.mu.Unlock()
	if !already {
		c.metrics.Down(peer).Add(1)
		c.logf("cluster: peer %s down for %s: %v", peer, c.cfg.DownFor, cause)
	}
}

func (c *Cluster) markUp(peer string) {
	c.mu.Lock()
	_, was := c.down[peer]
	delete(c.down, peer)
	c.mu.Unlock()
	if was {
		c.logf("cluster: peer %s back up", peer)
	}
}

func (c *Cluster) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
