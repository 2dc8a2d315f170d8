package graph

import (
	"math/rand"
	"testing"
)

// randomRegular builds a d-regular multigraph on n nodes from d random
// perfect matchings (the configuration-model flavour Jellyfish sweeps use;
// parallel edges simply accumulate multiplicity).
func randomRegular(n, d int, rng *rand.Rand) *Graph {
	g := New(n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for round := 0; round < d; round++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i+1 < n; i += 2 {
			if perm[i] != perm[i+1] {
				g.AddEdge(perm[i], perm[i+1])
			}
		}
	}
	return g
}

// BenchmarkAPSP is the tracked kernel benchmark: all-pairs BFS on a
// 1024-node random regular graph, serial (1 worker) vs the full pool.
func BenchmarkAPSP(b *testing.B) {
	g := randomRegular(1024, 8, rand.New(rand.NewSource(1)))
	c := g.Frozen() // build outside the timed region: the kernel is the target
	all := make([]int, c.N())
	for i := range all {
		all[i] = i
	}
	var buf BFSBuffer
	defer SetParallelism(0)
	b.Run("serial", func(b *testing.B) {
		SetParallelism(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.BFSManyInto(&buf, all)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		SetParallelism(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.BFSManyInto(&buf, all)
		}
	})
}

// BenchmarkPathStats measures the fused diameter+mean sweep (what topogen
// runs).
func BenchmarkPathStats(b *testing.B) {
	g := randomRegular(1024, 8, rand.New(rand.NewSource(2)))
	g.Frozen()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ps := g.PathStats(); !ps.Connected {
			b.Fatal("disconnected")
		}
	}
}

// BenchmarkBFS measures one BFS over the frozen view.
func BenchmarkBFS(b *testing.B) {
	g := randomRegular(4096, 8, rand.New(rand.NewSource(3)))
	c := g.Frozen()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ViewBFS(c, i%c.N())
	}
}

// BenchmarkKShortestPaths measures one k = 8 Yen query, the path set KSP and
// MPTCP routing ask for per ToR pair.
func BenchmarkKShortestPaths(b *testing.B) {
	g := randomRegular(1024, 8, rand.New(rand.NewSource(4)))
	g.Frozen()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % g.N()
		g.KShortestPaths(src, (src+g.N()/2)%g.N(), 8)
	}
}
