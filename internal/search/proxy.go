package search

import (
	"math/rand"

	"beyondft/internal/topology"
)

// proxySeed fixes the power-iteration RNG so the proxy is a pure function of
// the graph: the same candidate scores identically in every run, at every
// worker count — proxy ranking is part of the search's determinism contract.
const proxySeed = 0x70726f7879 // "proxy"

// proxyIters is the power-iteration count for the spectral term. The proxy
// only ranks candidates for GK evaluation, so a rough eigenvalue is enough.
const proxyIters = 160

// Proxy scores a topology with a cheap structural estimate of its
// throughput potential; higher is better. It is the candidate filter of the
// evaluation ladder: only the top proxy-ranked moves of a batch get a GK
// solve.
//
// The score sums two normalized terms:
//
//   - 1/mean-shortest-path: near-worst-case throughput under the hose model
//     degrades with the average hops a byte must travel (the paper's §5
//     capacity argument — throughput <= ports / (mean path · servers)), and
//     the term punishes the long detours of near-bisected graphs;
//   - spectral gap (d − λ₂)/d for regular graphs: expansion predicts
//     worst-case cut capacity, separating good expanders from locally
//     clustered graphs that share a degree sequence and similar path means.
//
// A disconnected graph scores -1: it can never beat any connected candidate.
func Proxy(t *topology.Topology) float64 {
	return proxy(t, rand.New(rand.NewSource(proxySeed)))
}

// proxy is Proxy on a generator of the caller's, which it re-seeds: the 5 KB
// of generator state are most of what scoring a candidate allocates.
func proxy(t *topology.Topology, rng *rand.Rand) float64 {
	ps := t.G.PathStats()
	if !ps.Connected || ps.Mean <= 0 {
		return -1
	}
	score := 1 / ps.Mean
	if d, ok := t.G.IsRegular(); ok && d > 0 {
		rng.Seed(proxySeed)
		gap := t.G.SpectralGap(proxyIters, rng)
		if gap > 0 {
			score += gap / float64(d)
		}
	}
	return score
}
