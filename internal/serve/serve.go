// Package serve is the topology-analysis query service: a long-running
// daemon (cmd/beyondftd) exposing the experiment registry and ad-hoc
// what-if queries (throughput under a traffic matrix, path statistics)
// over a JSON HTTP API, stdlib only.
//
// Interactive topology-design workloads re-issue the same queries
// constantly, so the serving core is built around not recomputing: an
// in-memory LRU (L1) in front of the harness's content-addressed disk
// cache (L2), a singleflight group so identical concurrent requests
// compute once, and bounded admission (worker pool + fixed-depth queue,
// overflow → 429) so load beyond the hardware degrades by rejecting
// cheaply instead of queueing unboundedly. Per-request deadlines propagate
// through context into the GK solver; SIGTERM drains in-flight requests
// and flushes a final manifest. /metrics exposes atomic counters and
// fixed-bucket latency histograms. DESIGN.md §8 documents the subsystem.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"beyondft/internal/cluster"
	"beyondft/internal/experiments"
	"beyondft/internal/harness"
	"beyondft/internal/obs"
	"beyondft/internal/whatif"
)

// Config configures a Server.
type Config struct {
	// Experiments scopes the job registry (scale, seed, epsilon) exactly
	// like cmd/runner's flags.
	Experiments experiments.Config
	// CacheDir is the L2 content-addressed cache directory, shared with
	// `runner run`; empty disables the disk tier.
	CacheDir string
	// L1Bytes budgets the in-memory result cache; <= 0 disables it.
	L1Bytes int64
	// L2MaxBytes, if > 0, keeps the disk tier pruned under this budget.
	L2MaxBytes int64
	// Workers bounds concurrent computes; <= 0 means 1.
	Workers int
	// QueueDepth bounds requests waiting for a compute slot; overflow is
	// rejected with 429. Negative means 0 (no queue).
	QueueDepth int
	// RequestTimeout is the per-request compute deadline; <= 0 means none.
	RequestTimeout time.Duration
	// OutDir, if non-empty, receives the final manifest.json on Shutdown.
	OutDir string
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Server is the HTTP front of the serving core.
type Server struct {
	cfg           Config
	reg           *harness.Registry
	engine        *Engine
	metrics       *Metrics
	whatifMetrics *whatif.Metrics
	mux           *http.ServeMux
	hs            *http.Server
	ln            net.Listener
	started       time.Time

	draining atomic.Bool

	mu     sync.Mutex
	served map[string]harness.JobReport // latest report per cache key
}

// New builds a Server. It opens (creating if needed) the L2 cache and, if
// a byte budget is set, prunes it immediately so a daemon restarted against
// an oversized cache starts within budget.
func New(cfg Config) (*Server, error) {
	var l2 *harness.Cache
	if cfg.CacheDir != "" {
		var err error
		if l2, err = harness.OpenCache(cfg.CacheDir); err != nil {
			return nil, err
		}
		if cfg.L2MaxBytes > 0 {
			if _, _, err := l2.Prune(cfg.L2MaxBytes, cfg.Logf); err != nil {
				return nil, err
			}
		}
	}
	metrics := NewMetrics()
	s := &Server{
		cfg:           cfg,
		reg:           cfg.Experiments.Registry(),
		metrics:       metrics,
		whatifMetrics: whatif.NewMetrics(metrics.Registry()),
		engine: NewEngine(EngineConfig{
			L1Bytes:    cfg.L1Bytes,
			L2:         l2,
			L2MaxBytes: cfg.L2MaxBytes,
			Workers:    cfg.Workers,
			QueueDepth: cfg.QueueDepth,
			Metrics:    metrics,
			Logf:       cfg.Logf,
		}),
		started: time.Now(),
		served:  map[string]harness.JobReport{},
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("POST /v1/jobs/{name}/run", s.handleJobRun(s.routeOf("/v1/jobs/run")))
	for kind, k := range adhocKinds {
		s.mux.HandleFunc("POST "+k.path, s.handleAdhoc(kind, s.routeOf(k.path)))
	}
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	// The peer replication and membership plane, over the local caches
	// (gossip is 503 while standalone).
	s.mux.Handle(cluster.Prefix, cluster.Handler(s.engine, s.Cluster))
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the server's HTTP handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics set.
func (s *Server) Metrics() *Metrics { return s.metrics }

// EnableCluster joins this node to a cluster: engine-backed endpoints start
// routing keys they miss locally through the cluster (forward to the owner,
// or probe the sibling replicas), filling the local caches from peer
// results and replicating fresh computes to sibling owners; the cluster's
// anti-entropy pass offers this node's disk tier to the other owners. Safe
// to call before or after Start; passing nil returns the node to standalone
// serving.
func (s *Server) EnableCluster(cl *cluster.Cluster) {
	s.engine.cluster.Store(cl)
	if cl == nil {
		return
	}
	cl.SetStore(s.engine)
	s.logf("serve: cluster enabled self=%s peers=%d replication=%d",
		cl.Self(), len(cl.Peers()), cl.Replication())
}

// Cluster returns the node's cluster view (nil when standalone).
func (s *Server) Cluster() *cluster.Cluster { return s.engine.cluster.Load() }

// StartDrain flips /readyz to 503 without closing the listener, so load
// balancers and peers stop sending new work while in-flight requests finish.
// Call it a readiness-probe interval before Shutdown.
func (s *Server) StartDrain() {
	if !s.draining.Swap(true) {
		s.logf("serve: draining (readyz now 503)")
	}
}

// Start listens on addr (":8080", "127.0.0.1:0", …) and serves in a
// background goroutine until Shutdown. Use Addr to learn the bound
// address when addr requested port 0.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.hs = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) && s.cfg.Logf != nil {
			s.cfg.Logf("serve: %v", err)
		}
	}()
	s.logf("serve: listening on %s", ln.Addr())
	return nil
}

// Addr returns the listener's address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains: the listener closes immediately (new connections are
// refused), in-flight requests run to completion (bounded by ctx), and the
// final manifest is flushed to Config.OutDir. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.hs != nil {
		err = s.hs.Shutdown(ctx)
	}
	if s.cfg.OutDir != "" {
		if p, merr := s.WriteManifest(s.cfg.OutDir); merr != nil {
			err = errors.Join(err, merr)
		} else {
			s.logf("serve: final manifest=%s", p)
		}
	}
	return err
}

// WriteManifest flushes a harness manifest summarizing everything served:
// one JobReport per distinct cache key (latest outcome), cache-hit totals
// across both tiers, and rejection/error counts folded into the report.
func (s *Server) WriteManifest(dir string) (string, error) {
	s.mu.Lock()
	jobs := make([]harness.JobReport, 0, len(s.served))
	for _, jr := range s.served {
		jobs = append(jobs, jr)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Name < jobs[j].Name })
	rep := &harness.Report{
		Workers:     s.cfg.Workers,
		Salt:        CodeSalt,
		WallClockMs: float64(time.Since(s.started)) / float64(time.Millisecond),
		CacheHits:   int(s.metrics.L1Hits.Load() + s.metrics.L2Hits.Load()),
		CacheMisses: int(s.metrics.Computed.Load()),
		Errors:      int(s.metrics.Errors.Load() + s.metrics.Rejected.Load()),
		Jobs:        jobs,
	}
	return harness.WriteManifest(dir, rep, s.cfg.CacheDir)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// record remembers the latest outcome for a cache key, for the final
// manifest. Bounded by the number of distinct queries served.
func (s *Server) record(name, key string, src Source, d time.Duration) {
	s.mu.Lock()
	s.served[key] = harness.JobReport{
		Name:       name,
		Key:        key,
		Cached:     src == SourceL1 || src == SourceL2 || src == SourcePeer,
		DurationMs: float64(d) / float64(time.Millisecond),
	}
	s.mu.Unlock()
}

// ---- response plumbing ----

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	w.Write(data)
	w.Write(newline) // a second write into net/http's buffer, not a copy of data grown by a byte
}

var newline = []byte{'\n'}

// writeEngineError maps engine/compute failures onto HTTP status codes:
// saturation → 429 + Retry-After, deadline → 504, client gone → 499-style
// 503, anything else → 500.
func (s *Server) writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errSaturated):
		// Rejected counter was bumped by the engine; a 429 is load
		// shedding, not an error.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: "compute capacity saturated; retry"})
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.Errors.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, apiError{Error: "deadline exceeded"})
	case errors.Is(err, context.Canceled):
		s.metrics.Errors.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "request canceled"})
	default:
		s.metrics.Errors.Add(1)
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	}
}

func (s *Server) writeBadRequest(w http.ResponseWriter, err error) {
	s.metrics.Errors.Add(1)
	writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
}

// decodeBody strictly decodes a JSON request body into v (unknown fields
// are errors — a typoed parameter silently meaning "default" is how wrong
// what-if answers get trusted). consumed is what the alias probe already
// read of the body; the decoder sees it first, then the rest.
func decodeBody(consumed []byte, r *http.Request, v any) error {
	var body io.Reader = http.MaxBytesReader(nil, r.Body, 1<<20)
	if len(consumed) > 0 {
		body = io.MultiReader(bytes.NewReader(consumed), body)
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// timeoutCtx derives a per-attempt compute deadline from a parent: the
// request's context, or the batch path's own stream context.
func (s *Server) timeoutCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	return context.WithCancel(ctx)
}

// route is what an engine-backed handler resolves once, when it is
// registered: the endpoint label (root span name) and its latency histogram,
// so an observation on the request path is the histogram's atomic increments
// and nothing else.
type route struct {
	endpoint string
	latency  *obs.Histogram
}

func (s *Server) routeOf(endpoint string) route {
	return route{endpoint, s.metrics.Latency(endpoint)}
}

// queryResponse is the envelope of every engine-backed endpoint.
type queryResponse struct {
	Key        string          `json:"key"`
	Source     Source          `json:"source"`
	DurationMs float64         `json:"duration_ms"`
	Result     json.RawMessage `json:"result"`
	// Trace is the per-request span tree, present only when the request
	// asked for it with ?trace=1.
	Trace *obs.Record `json:"trace,omitempty"`
}

// query is one engine-backed request resolved to engine inputs: the job
// name, canonical spec and salt its cache key derives from, how a peer
// re-issues it when the cluster decides another node owns its key (the
// peer-side path, and the request body: the canonical normalized spec, so
// the peer derives the identical cache key), and the compute.
type query struct {
	name    string
	spec    string
	salt    string
	path    string
	body    []byte
	compute func(context.Context) (json.RawMessage, error)
}

// serveQuery runs the shared engine path for one request and writes the
// response: metrics, deadline, engine, manifest record, histogram.
// ?trace=1 roots a span in the request context; the engine and the compute
// hang stage spans off it and the finished tree rides back in the response.
// alias, when the request had one (see handleAdhoc), is registered for the
// result's L1 entry once the request has been served.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, rt route, q query, alias []byte) {
	start := time.Now()
	var root *obs.Span
	if r.URL.Query().Get("trace") == "1" {
		root = obs.StartSpan(rt.endpoint)
		s.metrics.Traced.Add(1)
	}
	ctx, cancel := s.timeoutCtx(r.Context())
	defer cancel()
	ctx = obs.ContextWithSpan(ctx, root)
	data, key, src, err := s.engine.do(ctx, q, cluster.Forwarded(r))
	elapsed := time.Since(start)
	rt.latency.Observe(elapsed)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	root.End()
	s.record(q.name, key, src, elapsed)
	s.engine.Alias(key, alias)
	writeJSON(w, http.StatusOK, queryResponse{
		Key:        key,
		Source:     src,
		DurationMs: float64(elapsed) / float64(time.Millisecond),
		Result:     data,
		Trace:      root.Record(),
	})
}

// serveAliasHit answers a request whose bytes are an alias of an L1-resident
// entry, and reports whether it did. A hit counts where serveQuery's L1 hit
// counts (L1 counter, histogram, manifest record) and its reply is
// serveQuery's, byte for byte — assembled from the cached bytes in the
// request's scratch buffer instead of marshalled.
func (s *Server) serveAliasHit(w http.ResponseWriter, rt route, name string, alias []byte, bp *[]byte) bool {
	start := time.Now()
	key, data, ok := s.engine.LookupAlias(alias)
	if !ok {
		return false
	}
	elapsed := time.Since(start)
	rt.latency.Observe(elapsed)
	s.record(name, key, SourceL1, elapsed)
	*bp = appendEnvelope((*bp)[:0], key, SourceL1, elapsed, data) // the alias is spent; its buffer takes the reply
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(*bp)
	return true
}

// ---- handlers ----

// healthzResponse is the /healthz payload.
type healthzResponse struct {
	Status   string           `json:"status"`
	Draining bool             `json:"draining"`
	UptimeMs float64          `json:"uptime_ms"`
	Jobs     int              `json:"jobs"`
	L1       harness.LRUStats `json:"l1"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:   "ok",
		Draining: s.draining.Load(),
		UptimeMs: float64(time.Since(s.started)) / float64(time.Millisecond),
		Jobs:     s.reg.Len(),
		L1:       s.engine.L1Stats(),
	})
}

// readyzResponse is the /readyz payload.
type readyzResponse struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
}

// handleReadyz is the load-balancer readiness probe: 200 while the node
// accepts new work, 503 once draining (StartDrain/Shutdown). /healthz stays
// 200 throughout a drain — the process is alive, just not taking traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	code := http.StatusOK
	if draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, readyzResponse{Ready: !draining, Draining: draining})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w)
}

// jobInfo is one row of GET /v1/jobs.
type jobInfo struct {
	Name string `json:"name"`
	Key  string `json:"key"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	out := make([]jobInfo, 0, s.reg.Len())
	for _, j := range s.reg.Jobs() {
		out = append(out, jobInfo{Name: j.Name, Key: harness.Key(j.Name, j.Spec, experiments.CodeSalt)})
	}
	writeJSON(w, http.StatusOK, out)
}

// jobQuery resolves a registry job to engine inputs — shared between
// POST /v1/jobs/{name}/run and batch kind=job.
func (s *Server) jobQuery(job harness.Job) query {
	path := "/v1/jobs/" + url.PathEscape(job.Name) + "/run"
	return query{job.Name, job.Spec, experiments.CodeSalt, path, nil, func(ctx context.Context) (json.RawMessage, error) {
		v, err := job.Run(ctx)
		if err != nil {
			return nil, err
		}
		data, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("encode result: %w", err)
		}
		// Round-trip check at the boundary: what we cache and serve
		// must decode back into the driver's result type.
		if _, err := experiments.DecodeJobResult(data); err != nil {
			return nil, fmt.Errorf("result does not round-trip: %w", err)
		}
		return data, nil
	}}
}

// jobRunResult augments the generic envelope's Result with a figure count,
// exercising the exported JobResult JSON round-trip.
func (s *Server) handleJobRun(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Requests.Add(1)
		name := r.PathValue("name")
		job, ok := s.reg.Lookup(name)
		if !ok {
			s.metrics.Errors.Add(1)
			writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("unknown job %q (see GET /v1/jobs)", name)})
			return
		}
		s.serveQuery(w, r, rt, s.jobQuery(job), nil)
	}
}

// handleAdhoc serves POST /v1/<kind> for one ad-hoc query kind. A request
// whose exact bytes were resolved before and whose result is still in L1 is
// answered by the alias probe; everything else is interpreted by the
// resolver: strict decode and validation failures are 400s, the rest runs
// the shared engine path. A what-if request may ask for its results as a
// stream.
func (s *Server) handleAdhoc(kind string, rt route) http.HandlerFunc {
	name := adhocKinds[kind].path[1:]
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Requests.Add(1)
		bp := bufPool.Get().(*[]byte)
		defer putBuf(bp)
		alias, body := readAlias(*bp, kind, r)
		if alias != nil && s.serveAliasHit(w, rt, name, alias, bp) {
			return
		}
		q, req, err := s.resolveAdhoc(kind, func(v any) error { return decodeBody(body, r, v) })
		if err != nil {
			s.writeBadRequest(w, err)
			return
		}
		if wr, ok := req.(*WhatifRequest); ok && r.URL.Query().Get("stream") == "1" {
			s.serveWhatifStream(w, r, rt, wr)
			return
		}
		s.serveQuery(w, r, rt, q, alias)
	}
}
