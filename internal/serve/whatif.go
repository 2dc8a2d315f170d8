package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"beyondft/internal/eval"
	"beyondft/internal/fluid"
	"beyondft/internal/harness"
	"beyondft/internal/obs"
	"beyondft/internal/whatif"
)

// maxWhatifScenarios bounds how many scenarios one interactive request may
// enumerate. A full single-link sweep on an 8k-switch fabric is a batch
// workload — `runner run 'whatif*'` — not a request; the cap keeps a single
// POST from occupying a compute slot for minutes.
const maxWhatifScenarios = 4096

// WhatifRequest is the body of POST /v1/whatif: evaluate a scenario family
// (failures, expansions) against a base topology under a traffic matrix,
// with warm-started solves and the ε ladder. `?stream=1` switches the
// response to NDJSON with one line per finished scenario.
type WhatifRequest struct {
	Topo TopoSpec `json:"topo"`
	// TM is the traffic matrix family: longest-matching (default),
	// permutation, or all-to-all. Demands always live on the base racks,
	// also for rack-add scenarios (added racks contribute capacity only).
	TM string `json:"tm,omitempty"`
	// X is the fraction of active racks (default 1).
	X float64 `json:"x,omitempty"`
	// Seed drives workload randomness; independent of Topo.Seed and
	// Family.Seed. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// Family selects and sizes the scenario family.
	Family whatif.FamilySpec `json:"family"`
	// Ladder tunes the ε ladder; zero values take the engine defaults.
	Ladder whatif.Ladder `json:"ladder,omitempty"`

	// Handler-injected state; unexported, so it stays out of spec() and
	// the cache key.
	metrics *Metrics
	wm      *whatif.Metrics
	cache   *harness.Cache
	stream  func(whatif.Result)
}

func (r *WhatifRequest) normalize() error {
	if err := r.Topo.Normalize(); err != nil {
		return err
	}
	if err := eval.NormalizeTM(&r.TM, &r.X, &r.Seed); err != nil {
		return err
	}
	if err := r.Family.Normalize(); err != nil {
		return err
	}
	return r.Ladder.Normalize()
}

func (r *WhatifRequest) inject(s *Server) {
	r.metrics, r.wm, r.cache = s.metrics, s.whatifMetrics, s.engine.l2
}

// spec is the canonical cache spec of the full request (normalized JSON).
func (r *WhatifRequest) spec() string { return specOf(r) }

// baseSpec canonically describes everything a single scenario's result
// depends on besides its delta and ε: the base topology and traffic
// matrix. It deliberately excludes Family and Ladder, so per-scenario
// cache entries are shared across families and ladder configs that touch
// the same deltas.
func (r *WhatifRequest) baseSpec() string {
	return specOf(struct {
		Topo TopoSpec `json:"topo"`
		TM   string   `json:"tm"`
		X    float64  `json:"x"`
		Seed int64    `json:"seed"`
	}{r.Topo, r.TM, r.X, r.Seed})
}

// WhatifResult is the response payload of /v1/whatif (the `done` line of a
// streamed response).
type WhatifResult struct {
	Topology  string         `json:"topology"`
	Switches  int            `json:"switches"`
	Servers   int            `json:"servers"`
	TMName    string         `json:"tm"`
	Racks     int            `json:"racks"`
	Family    string         `json:"family"`
	Scenarios int            `json:"scenarios"`
	Report    *whatif.Report `json:"report"`
}

// run evaluates the sweep. Deterministic for a given spec, so the whole
// response is content-addressable like every other engine compute.
func (r *WhatifRequest) run(ctx context.Context) (json.RawMessage, error) {
	t, m, racks, err := instance(ctx, &r.Topo, r.TM, r.X, r.Seed)
	if err != nil {
		return nil, err
	}
	scens, err := whatif.Scenarios(t.G, r.Family)
	if err != nil {
		return nil, err
	}
	if len(scens) > maxWhatifScenarios {
		return nil, fmt.Errorf("family %q enumerates %d scenarios > limit %d (run it through the batch harness)",
			r.Family.Kind, len(scens), maxWhatifScenarios)
	}
	rep, err := whatif.Evaluate(t.G, fluid.Commodities(m), scens, whatif.Options{
		Ladder:   r.Ladder,
		Ctx:      ctx,
		Cache:    &whatif.ScenarioCache{Cache: r.cache, BaseSpec: r.baseSpec()}, // inert without a disk tier
		Metrics:  r.wm,
		Span:     obs.SpanFromContext(ctx),
		OnResult: r.stream,
	})
	if err != nil {
		return nil, err
	}
	if r.metrics != nil {
		r.metrics.GKIterations.Add(rep.Iterations)
	}
	out := WhatifResult{
		Topology:  t.Name,
		Switches:  t.NumSwitches(),
		Servers:   t.TotalServers(),
		TMName:    m.Name,
		Racks:     len(racks),
		Family:    r.Family.Kind,
		Scenarios: len(scens),
		Report:    rep,
	}
	return json.Marshal(&out)
}

// whatifStreamLine is one NDJSON line of a streamed sweep: exactly one of
// the fields is set. Scenario lines arrive in completion order (promoted
// scenarios appear twice, the fine result flagged `promoted`); the
// terminal line is either `done` or `error`.
type whatifStreamLine struct {
	Scenario *whatif.Result  `json:"scenario,omitempty"`
	Done     json.RawMessage `json:"done,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// serveWhatifStream runs the sweep outside the result cache (a stream
// cannot be replayed from a cache entry — though the per-scenario L2
// entries still make re-streams cheap), but inside admission control: a
// sweep is a compute like any other and must not bypass load shedding.
func (s *Server) serveWhatifStream(w http.ResponseWriter, r *http.Request, rt route, req *WhatifRequest) {
	start := time.Now()
	ctx, cancel := s.timeoutCtx(r.Context())
	defer cancel()
	if err := s.engine.adm.acquire(ctx); err != nil {
		if err == errSaturated {
			s.metrics.Rejected.Add(1)
		}
		s.writeEngineError(w, err)
		return
	}
	defer s.engine.adm.release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	req.stream = func(res whatif.Result) {
		// Evaluate serializes OnResult calls; encoder use is safe here.
		enc.Encode(whatifStreamLine{Scenario: &res})
		if flusher != nil {
			flusher.Flush()
		}
	}
	data, err := req.run(ctx)
	elapsed := time.Since(start)
	rt.latency.Observe(elapsed)
	if err != nil {
		// Headers (200) are already on the wire once scenario lines have
		// streamed; errors terminate the stream in-band.
		s.metrics.Errors.Add(1)
		enc.Encode(whatifStreamLine{Error: err.Error()})
		return
	}
	s.metrics.Computed.Add(1)
	enc.Encode(whatifStreamLine{Done: data})
}
