package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"beyondft/internal/eval"
	"beyondft/internal/graph"
	"beyondft/internal/obs"
	"beyondft/internal/tm"
	"beyondft/internal/topology"
)

// CodeSalt versions the daemon's cached responses. It is the evaluation
// core's version: whatever can change a served number — topology
// constructors, traffic matrices, the GK solver, the path kernels, the
// what-if ladder — is bumped there, once, for every tier.
const CodeSalt = eval.Version

// TopoSpec describes a topology to build; see eval.TopoSpec.
type TopoSpec = eval.TopoSpec

// adhocRequest is what the ad-hoc query kinds share. A request is decoded
// from a body, normalized, handed the server-side state its compute reports
// to (inject — unexported fields, so none of it reaches spec() or the cache
// key), and from then on is just a canonical spec and a compute.
type adhocRequest interface {
	normalize() error
	inject(s *Server)
	spec() string
	run(ctx context.Context) (json.RawMessage, error)
}

// adhocKinds is the table of ad-hoc query kinds: POST /v1/<kind> and batch
// items of that kind resolve through it, so a new kind is one entry here
// plus its request type.
var adhocKinds = map[string]struct {
	path string // endpoint path; without its leading slash, the engine job name
	new  func() adhocRequest
}{
	"throughput": {"/v1/throughput", func() adhocRequest { return new(ThroughputRequest) }},
	"pathstats":  {"/v1/pathstats", func() adhocRequest { return new(PathStatsRequest) }},
	"whatif":     {"/v1/whatif", func() adhocRequest { return new(WhatifRequest) }},
}

// resolveAdhoc turns one ad-hoc query body into engine inputs — the single
// path behind the per-kind handlers and /v1/batch. decode must decode
// strictly (unknown fields are errors). The canonical spec doubles as the
// body a peer is sent, so the peer derives the identical cache key.
func (s *Server) resolveAdhoc(kind string, decode func(v any) error) (query, adhocRequest, error) {
	k := adhocKinds[kind]
	req := k.new()
	if err := decode(req); err != nil {
		return query{}, nil, err
	}
	if err := req.normalize(); err != nil {
		return query{}, nil, err
	}
	req.inject(s)
	spec := req.spec()
	return query{k.path[1:], spec, CodeSalt, k.path, []byte(spec), req.run}, req, nil
}

// specOf is the canonical cache spec of a normalized request: its JSON
// encoding (struct field order is fixed, so the encoding is deterministic).
func specOf(req any) string {
	data, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("serve: encode spec: %v", err)) // flat structs of scalars
	}
	return string(data)
}

// ThroughputRequest is the body of POST /v1/throughput: evaluate a
// topology's per-server throughput in the fluid-flow model under a traffic
// matrix family — the interactive twin of `beyondft throughput`.
type ThroughputRequest struct {
	Topo TopoSpec `json:"topo"`
	// TM is the traffic matrix family: longest-matching (default),
	// permutation, or all-to-all.
	TM string `json:"tm,omitempty"`
	// X is the fraction of active racks (default 1).
	X float64 `json:"x,omitempty"`
	// Epsilon is the GK approximation parameter (default eval.DefaultFineEps).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Seed drives workload randomness (active-rack choice, permutation
	// pairing); independent of Topo.Seed. Default 1.
	Seed int64 `json:"seed,omitempty"`

	// metrics, when set by the handler, receives GK solver telemetry.
	// Unexported, so it stays out of spec() and the cache key.
	metrics *Metrics
}

func (r *ThroughputRequest) normalize() error {
	if err := r.Topo.Normalize(); err != nil {
		return err
	}
	if err := eval.NormalizeTM(&r.TM, &r.X, &r.Seed); err != nil {
		return err
	}
	if r.Epsilon == 0 {
		r.Epsilon = eval.DefaultFineEps
	}
	return eval.CheckEps("epsilon", r.Epsilon)
}

func (r *ThroughputRequest) inject(s *Server) { r.metrics = s.metrics }
func (r *ThroughputRequest) spec() string     { return specOf(r) }

// ThroughputResult is the response payload of /v1/throughput.
type ThroughputResult struct {
	Topology   string  `json:"topology"`
	Switches   int     `json:"switches"`
	Servers    int     `json:"servers"`
	TMName     string  `json:"tm"`
	Racks      int     `json:"racks"`
	Throughput float64 `json:"throughput"`  // per-server, clamped to 1
	UpperBound float64 `json:"upper_bound"` // GK dual bound (also clamped)
	Phases     int     `json:"phases"`
	Epsilon    float64 `json:"epsilon"`
}

// instance builds the request's topology and traffic matrix from their two
// independent seeds, with the topology build under its own span.
func instance(ctx context.Context, topo *TopoSpec, tmFamily string, x float64, seed int64) (*topology.Topology, *tm.TM, []int, error) {
	buildSp := obs.SpanFromContext(ctx).Child("build-topology")
	t, err := topo.Build(rand.New(rand.NewSource(topo.Seed)))
	buildSp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	m, racks, err := topo.TM(t, tmFamily, x, rand.New(rand.NewSource(seed)))
	return t, m, racks, err
}

// run computes the query. ctx cancellation propagates into the GK solver
// at phase granularity; a canceled run returns ctx.Err() rather than a
// partial result. A span in ctx (traced requests) gets build/solve children
// with the solver's phase and iteration counts as attributes.
func (r *ThroughputRequest) run(ctx context.Context) (json.RawMessage, error) {
	t, m, racks, err := instance(ctx, &r.Topo, r.TM, r.X, r.Seed)
	if err != nil {
		return nil, err
	}
	p := eval.ProblemOf(t.G, m)
	gkSp := obs.SpanFromContext(ctx).Child("gk-solve")
	res, err := eval.Solve(ctx, p, r.Epsilon, graph.Parallelism(), false)
	gkSp.SetAttr("phases", float64(res.Phases))
	gkSp.SetAttr("iterations", float64(res.Iterations))
	gkSp.SetAttr("fallbacks", float64(res.Fallbacks))
	gkSp.SetAttr("dual_bound", res.UpperBound)
	gkSp.End()
	if err != nil {
		return nil, err
	}
	if r.metrics != nil {
		r.metrics.GKSolves.Add(1)
		r.metrics.GKPhases.Add(int64(res.Phases))
		r.metrics.GKIterations.Add(int64(res.Iterations))
	}
	out := ThroughputResult{
		Topology:   t.Name,
		Switches:   t.NumSwitches(),
		Servers:    t.TotalServers(),
		TMName:     m.Name,
		Racks:      len(racks),
		Throughput: min(res.Throughput, 1),
		UpperBound: min(res.UpperBound, 1),
		Phases:     res.Phases,
		Epsilon:    r.Epsilon,
	}
	return json.Marshal(&out)
}

// PathStatsRequest is the body of POST /v1/pathstats: structural
// shortest-path statistics of a topology's switch graph.
type PathStatsRequest struct {
	Topo TopoSpec `json:"topo"`
}

func (r *PathStatsRequest) normalize() error { return r.Topo.Normalize() }
func (r *PathStatsRequest) inject(*Server)   {}
func (r *PathStatsRequest) spec() string     { return specOf(r) }

// PathStatsResult is the response payload of /v1/pathstats. Mean is -1
// when the graph is disconnected (JSON has no NaN).
type PathStatsResult struct {
	Topology  string  `json:"topology"`
	Switches  int     `json:"switches"`
	Servers   int     `json:"servers"`
	Connected bool    `json:"connected"`
	Diameter  int     `json:"diameter"`
	Mean      float64 `json:"mean_shortest_path"`
}

func (r *PathStatsRequest) run(ctx context.Context) (json.RawMessage, error) {
	t, err := r.Topo.Build(rand.New(rand.NewSource(r.Topo.Seed)))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ps := t.G.PathStats()
	out := PathStatsResult{
		Topology:  t.Name,
		Switches:  t.NumSwitches(),
		Servers:   t.TotalServers(),
		Connected: ps.Connected,
		Diameter:  ps.Diameter,
		Mean:      ps.Mean,
	}
	if !ps.Connected {
		out.Diameter, out.Mean = -1, -1
	}
	return json.Marshal(&out)
}
