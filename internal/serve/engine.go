package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"beyondft/internal/cluster"
	"beyondft/internal/harness"
	"beyondft/internal/obs"
)

// Source says where a response's bytes came from.
type Source string

const (
	// SourceL1 — in-memory LRU hit.
	SourceL1 Source = "l1"
	// SourceL2 — on-disk content-addressed cache hit (promoted into L1).
	SourceL2 Source = "l2"
	// SourceComputed — computed fresh by this request (and stored in both tiers).
	SourceComputed Source = "computed"
	// SourceCoalesced — served by joining an identical concurrent request's
	// compute.
	SourceCoalesced Source = "coalesced"
	// SourcePeer — fetched from the key's ring owner (cluster tier) and
	// filled into the local caches.
	SourcePeer Source = "peer"
)

// l2PruneEvery is how many fresh results land in the disk tier between
// byte-budget prunes. Pruning walks the cache directory, so doing it on
// every put would make the write path O(entries); amortizing over a batch
// keeps overshoot bounded by ~l2PruneEvery entries.
const l2PruneEvery = 64

// Engine is the serving core: a two-tier result cache (in-memory LRU over
// the harness's on-disk content-addressed cache) behind a singleflight
// group, with bounded admission in front of actual computation.
//
// The request path, cheapest to most expensive:
//
//	alias (lock + map probe on the request's own bytes; LookupAlias)
//	→ L1 (lock + map probe on the content key)
//	→ singleflight join (identical concurrent requests compute once)
//	→ L2 (one file read; hit repopulates L1)
//	→ peer (clustered only: Cluster.Fetch forwards or probes siblings)
//	→ admission (worker slots + bounded queue; overflow → errSaturated)
//	→ compute (stores into L2 then L1)
//
// Every tier is optional: a nil L2 serves from memory only, an L1 budget of
// zero disables memory caching, and the zero admission config still bounds
// computes to one at a time.
type Engine struct {
	l1         *harness.LRU
	l2         *harness.Cache
	l2MaxBytes int64
	adm        *admission
	flights    flightGroup
	metrics    *Metrics
	logf       func(format string, args ...any)

	l2Puts atomic.Int64

	// cluster, when set (Server.EnableCluster), routes keys this node
	// missed locally (Cluster.Fetch) and receives fresh computes for
	// replication. Nil = standalone.
	cluster atomic.Pointer[cluster.Cluster]

	// computeStarted, when non-nil (tests only), runs in the leader
	// goroutine after admission granted a slot and before compute begins.
	// The coalescing / saturation / drain tests use it to hold a compute
	// open at a known point.
	computeStarted func(key string)
}

// EngineConfig configures an Engine.
type EngineConfig struct {
	// L1Bytes is the in-memory LRU budget; <= 0 disables the memory tier.
	L1Bytes int64
	// L2, if non-nil, is the on-disk tier shared with the batch harness —
	// a daemon and `beyondft run` pointed at the same directory see each
	// other's results.
	L2 *harness.Cache
	// L2MaxBytes, if > 0, prunes the disk tier (oldest entries first) back
	// under this budget every l2PruneEvery stores.
	L2MaxBytes int64
	// Workers bounds concurrent computes; <= 0 means 1.
	Workers int
	// QueueDepth bounds requests waiting for a compute slot; beyond it,
	// acquire fails fast with errSaturated.
	QueueDepth int
	// Metrics receives counters; nil allocates a private set.
	Metrics *Metrics
	// Logf, if non-nil, receives prune/corruption diagnostics.
	Logf func(format string, args ...any)
}

// NewEngine builds the serving core.
func NewEngine(cfg EngineConfig) *Engine {
	m := cfg.Metrics
	if m == nil {
		m = NewMetrics()
	}
	return &Engine{
		l1:         harness.NewLRU(cfg.L1Bytes),
		l2:         cfg.L2,
		l2MaxBytes: cfg.L2MaxBytes,
		adm:        newAdmission(cfg.Workers, cfg.QueueDepth),
		metrics:    m,
		logf:       cfg.Logf,
	}
}

// Metrics returns the engine's metrics set (shared with the server).
func (e *Engine) Metrics() *Metrics { return e.metrics }

// L1Stats exposes the memory tier's occupancy for /healthz.
func (e *Engine) L1Stats() harness.LRUStats { return e.l1.Stats() }

// Do returns the encoded result for the (name, spec, salt) triple,
// computing it with compute only if no tier has it and no identical request
// is already computing it. The returned key is the content address
// (harness.Key) the result is stored under; src says which tier answered.
// The returned bytes are shared with the cache and must not be mutated. Do
// never consults the cluster: its query has no form a peer could serve.
func (e *Engine) Do(ctx context.Context, name, spec, salt string,
	compute func(context.Context) (json.RawMessage, error)) (data json.RawMessage, key string, src Source, err error) {
	return e.do(ctx, query{name: name, spec: spec, salt: salt, compute: compute}, false)
}

// do is Do for a resolved query. On a clustered engine the flight's leader
// asks Cluster.Fetch between the disk tier and local compute, which makes the
// singleflight cluster-wide: the local flightGroup collapses identical local
// requests into one forward, the owner's collapses forwards from every node
// into one compute. forwarded says the request arrived by a peer's forward.
//
// The work runs detached from ctx: if this caller's context expires, the
// flight keeps going for any joiners still listening and is canceled only
// when the last participant leaves (see flightGroup).
func (e *Engine) do(ctx context.Context, q query, forwarded bool) (data json.RawMessage, key string, src Source, err error) {
	sp := obs.SpanFromContext(ctx)
	key = harness.Key(q.name, q.spec, q.salt)
	probe := sp.Child("l1-probe")
	data, ok := e.l1.Get(key)
	probe.End()
	if ok {
		e.metrics.L1Hits.Add(1)
		return data, key, SourceL1, nil
	}
	c, leader := e.flights.join(key)
	if !leader {
		e.metrics.Coalesced.Add(1)
		wait := sp.Child("coalesce-wait")
		defer wait.End()
		select {
		case <-c.done:
			if c.err != nil {
				return nil, key, "", c.err
			}
			return c.data, key, SourceCoalesced, nil
		case <-ctx.Done():
			// This waiter's deadline expired; the flight keeps computing
			// for whoever is still listening, and the result still lands
			// in the caches.
			e.flights.drop(c)
			return nil, key, "", ctx.Err()
		}
	}
	// Leader: launch the work detached from this request's context, then
	// wait like any other participant. WithoutCancel keeps context values
	// (pprof labels, spans) but drops the request's cancellation and
	// deadline; the flight's refcount supplies cancellation instead.
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	e.flights.setCancel(c, cancel)
	go func() {
		defer cancel()
		c.data, c.src, c.err = e.lookupOrCompute(cctx, sp, key, q, forwarded)
		e.flights.finish(key, c)
	}()
	select {
	case <-c.done:
		return c.data, key, c.src, c.err
	case <-ctx.Done():
		e.flights.drop(c)
		return nil, key, "", ctx.Err()
	}
}

// lookupOrCompute is the flight's work: disk tier, then the cluster's route
// for the key, then admission-gated local compute, storing fresh results
// into both tiers and handing them to the cluster for replication. Stage
// spans hang off sp (nil when the request is untraced) and the compute runs
// under pprof labels so CPU profiles attribute samples to the endpoint.
func (e *Engine) lookupOrCompute(ctx context.Context, sp *obs.Span, key string, q query, forwarded bool) (json.RawMessage, Source, error) {
	if e.l2 != nil {
		l2sp := sp.Child("l2-probe")
		data, hit, err := e.l2.Get(key)
		l2sp.End()
		if err != nil && e.logf != nil {
			e.logf("serve: l2 read key=%.12s…: %v (recomputing)", key, err)
		}
		if err == nil && hit {
			e.metrics.L2Hits.Add(1)
			e.putL1(key, data)
			return data, SourceL2, nil
		}
	}
	cl := e.cluster.Load()
	if cl != nil && q.path != "" {
		data, err := cl.Fetch(ctx, key, q.path, q.body, forwarded)
		if err != nil {
			// The owner shed the request: propagate the shed instead of
			// absorbing the fleet's overload locally.
			e.metrics.Rejected.Add(1)
			return nil, "", fmt.Errorf("%w: %v", errSaturated, err)
		}
		if data != nil {
			e.metrics.PeerHits.Add(1)
			e.fill(key, q.name, q.spec, q.salt, data)
			return data, SourcePeer, nil
		}
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
	}
	admSp := sp.Child("admission")
	err := e.adm.acquire(ctx)
	admSp.End()
	if err != nil {
		if err == errSaturated {
			e.metrics.Rejected.Add(1)
		}
		return nil, "", err
	}
	defer e.adm.release()
	if e.computeStarted != nil {
		e.computeStarted(key)
	}
	compSp := sp.Child("compute")
	var data json.RawMessage
	obs.Do(obs.ContextWithSpan(ctx, compSp), "query", q.name, func(ctx context.Context) {
		data, err = safeCompute(ctx, q.compute)
	})
	compSp.End()
	if err != nil {
		return nil, "", err
	}
	// A deadline that fired mid-compute means the result may be partial
	// (the GK solver returns early on cancellation): report the timeout and
	// never cache.
	if ctx.Err() != nil {
		return nil, "", ctx.Err()
	}
	e.metrics.Computed.Add(1)
	storeSp := sp.Child("store")
	defer storeSp.End()
	e.store("write", key, q.name, q.spec, q.salt, data)
	if cl != nil {
		cl.ReplicateAsync(cluster.Entry{Key: key, Name: q.name, Spec: q.spec, Salt: q.salt, Result: data})
	}
	return data, SourceComputed, nil
}

// Has reports whether key is present in the node's durable tier (L2 when
// configured, else L1) — the answer to an anti-entropy "have you got"
// probe. It deliberately ignores an L1-only copy when a disk tier exists:
// the durable tier is what replica placement counts. A probe is not a use:
// it counts no L1 hit and leaves the key's recency alone.
func (e *Engine) Has(key string) bool {
	if e.l2 != nil {
		_, hit, err := e.l2.Get(key)
		return err == nil && hit
	}
	return e.l1.Contains(key)
}

// Fill stores a replica-push result into the local tiers unless the key is
// already durably present, and reports whether it was (the push was a
// no-op). Content addressing makes double fills harmless, so the check is
// an optimization and a test observable, not a correctness requirement.
func (e *Engine) Fill(key, name, spec, salt string, data json.RawMessage) (had bool) {
	if e.Has(key) {
		return true
	}
	e.fill(key, name, spec, salt, data)
	return false
}

// Load reads one entry from the durable tier, metadata and all — the
// replication plane's cache-only read. A node without a disk tier has
// nothing durable to offer.
func (e *Engine) Load(key string) (cluster.Entry, bool) {
	if e.l2 == nil {
		return cluster.Entry{}, false
	}
	en, ok, err := e.l2.Load(key)
	if err != nil || !ok {
		return cluster.Entry{}, false
	}
	return cluster.Entry{Key: key, Name: en.Job, Spec: en.Spec, Salt: en.Salt, Result: en.Result}, true
}

// Keys lists the durable tier's keys, for the cluster's anti-entropy pass.
func (e *Engine) Keys() ([]string, error) {
	if e.l2 == nil {
		return nil, nil
	}
	return e.l2.Keys()
}

// fill stores a peer-served result into both local tiers. Results are
// content-addressed and immutable, so a fill is always safe: the bytes for a
// key are the same wherever they were computed.
func (e *Engine) fill(key, name, spec, salt string, data json.RawMessage) {
	e.metrics.PeerFills.Add(1)
	e.store("fill", key, name, spec, salt, data)
}

// store puts a result into both local tiers, keeping the disk tier within
// its byte budget. A failed disk write is logged (as a `what`) and costs a
// recomputation later; the result is still served from memory.
func (e *Engine) store(what, key, name, spec, salt string, data json.RawMessage) {
	e.putL1(key, data)
	if e.l2 == nil {
		return
	}
	if err := e.l2.Put(key, harness.Entry{
		Job: name, Spec: spec, Salt: salt,
		CreatedAt: time.Now().UTC(), Result: data,
	}); err != nil && e.logf != nil {
		e.logf("serve: l2 %s key=%.12s…: %v", what, key, err)
	}
	if e.l2MaxBytes > 0 && e.l2Puts.Add(1)%l2PruneEvery == 0 {
		if _, _, err := e.l2.Prune(e.l2MaxBytes, e.logf); err != nil && e.logf != nil {
			e.logf("serve: l2 prune: %v", err)
		}
	}
}

// putL1 is the one place bytes enter the memory tier (compute store, L2
// promote, peer fill). What a hit replies with is the entry's bytes spliced
// into an envelope, so the work encoding/json would do on them in every
// reply — validate, compact, escape <, >, & and U+2028/9 — is done here,
// once. A payload that is not JSON is refused: it is served (and fails) on
// the ordinary path, never from memory.
func (e *Engine) putL1(key string, data json.RawMessage) {
	canon, err := json.Marshal(data)
	if err != nil {
		if e.logf != nil {
			e.logf("serve: l1 put key=%.12s…: %v (not cached in memory)", key, err)
		}
		return
	}
	e.l1.Put(key, canon)
}

// LookupAlias probes L1 by a request's own bytes (see appendAlias) instead of
// its content key. A hit is an L1 hit in every counter. An alias exists only
// because Alias registered it after the same bytes went through the strict
// resolver, so the probe is a memo of that pure function — it interprets
// nothing — and it dies with its entry.
func (e *Engine) LookupAlias(alias []byte) (key string, data json.RawMessage, ok bool) {
	if key, data, ok = e.l1.Lookup(alias); ok {
		e.metrics.L1Hits.Add(1)
		e.metrics.AliasHits.Add(1)
	}
	return key, data, ok
}

// Alias names key's L1 entry (if it has one) by the request bytes that
// resolved to it.
func (e *Engine) Alias(key string, alias []byte) {
	if len(alias) > 0 {
		e.l1.Alias(key, alias)
	}
}

// safeCompute invokes compute with panic recovery, so one malformed query
// cannot take down the daemon (mirrors harness.safeRun).
func safeCompute(ctx context.Context, compute func(context.Context) (json.RawMessage, error)) (data json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: compute panic: %v\n%s", r, debug.Stack())
		}
	}()
	return compute(ctx)
}
