package search

import (
	"fmt"
	"math/rand"

	"beyondft/internal/cost"
	"beyondft/internal/eval"
	"beyondft/internal/topology"
)

// maxResizeFactor bounds how far a resize move may scale the switch count in
// one step, keeping proposals in the neighborhood of the current design.
const maxResizeFactor = 4

// proposeParam draws one generator-parameter step from the current
// coordinates: a ±1 degree (or lift) step, or a resize to a different
// divisor of the total server count. The returned Params keep the total
// server count exactly; the port-dollar side of the envelope is checked by
// preAdmitsParams before the instance is built.
func proposeParam(p Params, rng *rand.Rand) (Params, Move, bool) {
	total := p.N * p.Servers
	switch p.Kind {
	case "jellyfish":
		if rng.Intn(2) == 0 {
			r := p.Degree + 1 - 2*rng.Intn(2) // ±1
			if r < 2 || r >= p.N || p.N*r%2 != 0 {
				return Params{}, Move{}, false
			}
			np := p
			np.Degree = r
			return np, Move{Kind: "param", Param: "degree", Value: r}, true
		}
		// Resize: re-spread the same servers over a different switch count
		// (a divisor of the total, so servers-per-switch stays integral).
		var ns []int
		for _, n := range divisorsOf(total) {
			if n != p.N && n > p.Degree && n >= 3 && n <= maxResizeFactor*p.N && n*p.Degree%2 == 0 {
				ns = append(ns, n)
			}
		}
		if len(ns) == 0 {
			return Params{}, Move{}, false
		}
		n := ns[rng.Intn(len(ns))]
		np := p
		np.N, np.Servers = n, total/n
		return np, Move{Kind: "param", Param: "resize", Value: n}, true
	case "xpander":
		np := p
		var m Move
		if rng.Intn(2) == 0 {
			d := p.Degree + 1 - 2*rng.Intn(2)
			if d < 2 {
				return Params{}, Move{}, false
			}
			np.Degree = d
			m = Move{Kind: "param", Param: "degree", Value: d}
		} else {
			lift := p.Lift + 1 - 2*rng.Intn(2)
			if lift < 1 {
				return Params{}, Move{}, false
			}
			np.Lift = lift
			m = Move{Kind: "param", Param: "lift", Value: lift}
		}
		n := (np.Degree + 1) * np.Lift
		if n < 2 || total%n != 0 || (np.Degree == np.Lift && n == p.N) {
			return Params{}, Move{}, false
		}
		np.N, np.Servers = n, total/n
		if np.N == p.N && np.Degree == p.Degree && np.Lift == p.Lift {
			return Params{}, Move{}, false
		}
		return np, m, true
	default:
		return Params{}, Move{}, false
	}
}

// divisorsOf returns the divisors of v in ascending order (empty for v <= 0).
func divisorsOf(v int) []int {
	if v <= 0 {
		return nil
	}
	var small, large []int
	for d := 1; d*d <= v; d++ {
		if v%d == 0 {
			small = append(small, d)
			if q := v / d; q != d {
				large = append(large, q)
			}
		}
	}
	for i := len(large) - 1; i >= 0; i-- {
		small = append(small, large[i])
	}
	return small
}

// preAdmitsParams checks the envelope on paper before paying for an
// instance build: exact server count and the port-dollar bound (network
// ports n·degree plus one port per server, both independent of the random
// instance drawn).
func preAdmitsParams(p Params, env Envelope) bool {
	total := p.N * p.Servers
	if total != env.Servers {
		return false
	}
	ports := p.N*p.Degree + total
	return cost.StaticPortDollars()*float64(ports) <= env.MaxDollars+1e-6
}

// Start builds a generator starting point from p's coordinates (Kind, N
// for jellyfish, Degree, Lift for xpander, Servers), drawing the instance
// from rng, and returns it with the coordinates parameter moves step from:
// N is the built switch count, and the coordinate the kind ignores is zero.
func Start(p Params, rng *rand.Rand) (*topology.Topology, Params, error) {
	switch p.Kind {
	case "jellyfish":
		p.Lift = 0
	case "xpander":
	default:
		return nil, Params{}, fmt.Errorf("search: unknown starting topology %q (want jellyfish|xpander)", p.Kind)
	}
	spec := eval.TopoSpec{Kind: p.Kind, N: p.N, Degree: p.Degree, Lift: p.Lift, Servers: p.Servers}
	t, err := spec.Build(rng)
	if err != nil {
		return nil, Params{}, err
	}
	p.N = t.NumSwitches()
	return t, p, nil
}

// buildParams constructs a fresh generator instance at the given coordinates
// with a deterministic seed. Returns nil if the coordinates are invalid
// (constructor panics are contained here so a bad proposal costs one
// attempt, not the search).
func buildParams(p Params, seed int64) (t *topology.Topology) {
	defer func() {
		if recover() != nil {
			t = nil
		}
	}()
	t, _, _ = Start(p, rand.New(rand.NewSource(seed)))
	return t
}
