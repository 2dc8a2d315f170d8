// Package eval is the evaluation core: the one measurement every tier of
// this repo serves — per-server fluid-flow throughput of a static topology
// under a near-worst-case traffic matrix — written once, for the daemon, the
// what-if engine, the design search and the CLIs. It owns three decisions:
//
//  1. the problem instance (instance.go): a TopoSpec with its defaults,
//     ignored-field zeroing, validation and constructor switch, and the
//     traffic-matrix families over an x-fraction of its racks;
//  2. the ε-ladder (this file): rung defaults and bounds, the GK rung solve,
//     the content-addressed rung store (store.go), and the refine rule — a
//     fine solve warm-starts from the instance's own coarse duals, and that
//     deterministic coarse solve is recomputed when its result came from the
//     cache, so a rung result is a pure function of (instance, ε) at any
//     worker count and any cache history;
//  3. the salt (Version): the single version constant every cache key of
//     the query path derives from.
//
// Selection policy — which instances to refine, what to do with the numbers —
// stays with the callers. DESIGN.md §12 documents the contract.
package eval

import (
	"context"
	"fmt"

	"beyondft/internal/fluid"
	"beyondft/internal/graph"
	"beyondft/internal/tm"
)

// Version salts every content-addressed entry of the query path: rung
// entries written through Store, and (as serve.CodeSalt) the daemon's
// response entries. Bump it whenever a topology constructor, a traffic-matrix
// family, the GK solver, the warm-start mapping or the ladder rule changes a
// numeric output — one edit invalidates everything that could be stale.
//
// v2 (PR 15): replaces "serve-v1+gk-warm-whatif", "whatif-v1" and
// "search-v1". Fine what-if entries written before it could depend on cache
// history (a cached coarse rung made the fine solve warm-start from mapped
// base duals instead of the scenario's own), fine entries of either engine
// were keyed without the coarse ε that seeds them, and a what-if solve cut
// short by cancellation could be stored.
const Version = "eval-v2"

// Rung defaults and the ε range the solver is served at.
const (
	DefaultCoarseEps = 0.25
	DefaultFineEps   = 0.08
	minEps           = 0.005
	maxEps           = 0.5
)

// CheckEps validates one GK ε; name is the field as the caller spells it.
func CheckEps(name string, eps float64) error {
	if eps < minEps || eps > maxEps {
		return fmt.Errorf("%s=%g: need [%g,%g]", name, eps, minEps, maxEps)
	}
	return nil
}

// NormalizeRungs fills the ladder defaults into zero rungs and validates
// them: both in the served range, coarse no finer than fine. Equal rungs are
// valid and mean a one-rung ladder (see Ladder.TwoRungs).
func NormalizeRungs(coarse, fine *float64) error {
	if *coarse == 0 {
		*coarse = DefaultCoarseEps
	}
	if *fine == 0 {
		*fine = DefaultFineEps
	}
	if err := CheckEps("fine_eps", *fine); err != nil {
		return err
	}
	if *coarse < *fine || *coarse > maxEps {
		return fmt.Errorf("coarse_eps=%g: need [fine_eps,%g]", *coarse, maxEps)
	}
	return nil
}

// Problem is one solvable instance: a capacitated network, its demands, and
// the dual lengths its coarse rung starts from. Warm is part of the
// instance — every rung result is a function of it — so it must itself be
// deterministic (nil, the cold start, for a standalone design; the mapped
// duals of the base solve for a what-if scenario).
type Problem struct {
	NW    *fluid.Network
	Comms []fluid.Commodity
	Warm  []float64

	ws *fluid.Workspace // the arrays NW and Comms live in, lent to the solves too
}

// ProblemOf is the cold instance of a topology's switch graph under a
// traffic matrix at unit link capacity (server line rate).
func ProblemOf(g *graph.Graph, m *tm.TM) Problem {
	return Problem{NW: fluid.NewNetwork(g, 1.0), Comms: fluid.Commodities(m)}
}

// Workspace keeps the memory of one evaluation — the traffic matrix and what
// building it takes, the arc network, the commodities, the solver's arrays —
// for the next one on it, so that evaluating design after design of about one
// size allocates for the first few only. What it returns is valid until the
// same method is called on it again; one goroutine at a time. Results are the
// same with or without one.
type Workspace struct {
	match tm.MatchingScratch
	tm    tm.TM
	fluid fluid.Workspace
}

// LongestMatching is tm.LongestMatching in the workspace's own matrix.
func (w *Workspace) LongestMatching(g *graph.Graph, racks []int, serversOf func(int) int) *tm.TM {
	w.match.LongestMatching(&w.tm, g, racks, serversOf)
	return &w.tm
}

// ProblemOf is the package function on the workspace's arrays; solves of the
// problem run on them too.
func (w *Workspace) ProblemOf(g *graph.Graph, m *tm.TM) Problem {
	return Problem{NW: w.fluid.Network(g.Frozen(), 1.0), Comms: w.fluid.Commodities(m), ws: &w.fluid}
}

// Rung is the outcome of one GK solve at one ε. Its JSON form is the cached
// representation: content only, no timings or machine state.
type Rung struct {
	Throughput float64 `json:"throughput"`  // raw GK per-server fraction (not clamped)
	UpperBound float64 `json:"upper_bound"` // GK dual bound
	Phases     int     `json:"phases"`
	Epsilon    float64 `json:"epsilon"`
	// Duals holds the final per-arc lengths of a solve that exported them,
	// the seed of the next rung. In memory only: a cached rung has none, and
	// Ladder.Fine recomputes the solve that would have produced them.
	Duals []float64 `json:"-"`
	// Iterations counts the routing Dijkstras this result cost in this
	// process — the deterministic cost measure; zero for a cached rung.
	Iterations int `json:"-"`
}

// Solve runs one GK solve of p at eps from p.Warm on up to `workers`
// goroutines (the result is identical at any count). A solve cut short by
// ctx returns ctx's error and no rung: partial flows are feasible but far
// from optimal, and must never be reported or cached.
func Solve(ctx context.Context, p Problem, eps float64, workers int, exportDuals bool) (Rung, error) {
	var tel fluid.GKTelemetry
	res := fluid.MaxConcurrentFlow(p.NW, p.Comms, fluid.GKOptions{
		Epsilon:     eps,
		Workers:     workers,
		Ctx:         ctx,
		WarmStart:   p.Warm,
		ExportDuals: exportDuals,
		Workspace:   p.ws,
		Observer:    &tel,
	})
	if ctx != nil && ctx.Err() != nil {
		return Rung{}, ctx.Err()
	}
	return Rung{
		Throughput: res.Throughput,
		UpperBound: res.UpperBound,
		Phases:     res.Phases,
		Epsilon:    eps,
		Duals:      res.Duals,
		Iterations: tel.Iterations,
	}, nil
}

// Ladder is the two-rung ε policy: rank many instances cheaply at CoarseEps,
// re-solve the few that matter at FineEps. Solves run single-threaded —
// callers parallelise across instances, which at family scale beats
// intra-solve parallelism. Ctx, if non-nil, cancels every solve.
type Ladder struct {
	CoarseEps, FineEps float64
	Ctx                context.Context
}

// TwoRungs reports whether the ladder has a fine rung at all: with equal
// rungs the coarse result already is the fine one, and callers skip the
// re-solve (and its accounting).
func (l Ladder) TwoRungs() bool { return l.CoarseEps != l.FineEps }

// CoarseKey and FineKey name the rungs in Store specs. A fine result is
// seeded by the coarse duals, so its address carries both ε: two ladders
// that share a fine ε but not a coarse one compute different numbers and
// must not share entries.
func (l Ladder) CoarseKey() string { return fmt.Sprintf("eps=%g", l.CoarseEps) }
func (l Ladder) FineKey() string {
	return fmt.Sprintf("eps=%g|coarse=%g", l.FineEps, l.CoarseEps)
}

// Coarse solves p at the coarse rung from p.Warm, exporting the duals a
// later Fine starts from.
func (l Ladder) Coarse(p Problem) (Rung, error) {
	return Solve(l.Ctx, p, l.CoarseEps, 1, true)
}

// Fine solves p at the fine rung, warm-started from p's own coarse duals.
// coarse is p's coarse rung; when it came from the cache (no duals) the
// coarse solve is run again first — it is deterministic, so the fine result
// does not depend on where the coarse one came from. The recomputed solve's
// iterations are charged to the returned rung.
func (l Ladder) Fine(p Problem, coarse Rung) (Rung, error) {
	extra := 0
	if coarse.Duals == nil {
		var err error
		if coarse, err = l.Coarse(p); err != nil {
			return Rung{}, err
		}
		extra = coarse.Iterations
	}
	p.Warm = coarse.Duals
	fine, err := Solve(l.Ctx, p, l.FineEps, 1, false)
	fine.Iterations += extra
	return fine, err
}
