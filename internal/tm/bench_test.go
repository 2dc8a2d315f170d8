package tm

import (
	"math/rand"
	"testing"

	"beyondft/internal/graph"
)

// BenchmarkLongestMatching tracks the §5 TM builder: one BFS per
// participating rack (parallel on the frozen CSR view) plus the greedy+2-opt
// matching.
func BenchmarkLongestMatching(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 512
	g := ringGraph(n)
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	g.Frozen()
	var racks []int
	for r := 0; r < n; r += 4 {
		racks = append(racks, r)
	}
	run := func(b *testing.B, workers int) {
		graph.SetParallelism(workers)
		defer graph.SetParallelism(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m := LongestMatching(g, racks, func(int) int { return 4 }); len(m.Demands) == 0 {
				b.Fatal("empty TM")
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}
