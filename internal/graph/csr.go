package graph

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// CSR is an immutable compressed-sparse-row view of a Graph, built once by
// Frozen() and shared read-only by the flat-array kernels (BFS, parallel
// APSP/PathStats, shortest-path DAGs) and by any number of goroutines.
//
// The distinct neighbors of node u are neighbor[rowStart[u]:rowStart[u+1]]
// in ascending order, with parallel-edge multiplicities in the same slots of
// mult. The view reflects the graph at freeze time only: any mutation of the
// owning Graph invalidates its cached view and a later Frozen() rebuilds.
type CSR struct {
	n        int
	rowStart []int32 // len n+1; rowStart[n] == number of distinct adjacencies
	neighbor []int32 // concatenated ascending adjacency lists
	mult     []int32 // mult[k] = multiplicity of edge (u, neighbor[k])
}

// Frozen returns the CSR view of g, building and caching it on first use.
// The cached view is invalidated by AddEdge/AddEdgeMulti/RemoveEdge; callers
// must not mutate g while concurrently calling Frozen or using a view (the
// same single-writer rule the map representation already imposes).
func (g *Graph) Frozen() *CSR {
	g.frozenMu.Lock()
	defer g.frozenMu.Unlock()
	if g.frozen == nil {
		g.frozen = buildCSR(g)
	}
	return g.frozen
}

func buildCSR(g *Graph) *CSR {
	c := &CSR{n: g.n, rowStart: make([]int32, g.n+1)}
	entries, widest := 0, 0
	for u := 0; u < g.n; u++ {
		entries += len(g.adj[u])
		widest = max(widest, len(g.adj[u]))
	}
	c.neighbor = make([]int32, 0, entries)
	c.mult = make([]int32, 0, entries)
	row := make([]int, 0, widest)
	for u := 0; u < g.n; u++ {
		row = row[:0]
		for v := range g.adj[u] {
			row = append(row, v)
		}
		sort.Ints(row)
		for _, v := range row {
			c.neighbor = append(c.neighbor, int32(v))
			c.mult = append(c.mult, int32(g.adj[u][v]))
		}
		c.rowStart[u+1] = int32(len(c.neighbor))
	}
	return c
}

// N returns the number of nodes.
func (c *CSR) N() int { return c.n }

// Row returns the ascending distinct neighbors of u and their parallel-edge
// multiplicities. Both slices alias the frozen view and must not be mutated.
func (c *CSR) Row(u int) (neighbors, mults []int32) {
	lo, hi := c.rowStart[u], c.rowStart[u+1]
	return c.neighbor[lo:hi], c.mult[lo:hi]
}

// parallelism is the worker cap for the parallel kernels; <= 0 means
// GOMAXPROCS. Stored atomically so tests can flip it around kernel calls
// without racing in-flight readers.
var parallelism atomic.Int32

// SetParallelism caps the worker count used by the parallel kernels
// (PathStats, BFSManyInto and the Graph wrappers over them). n <= 0 restores
// the default of GOMAXPROCS. All kernels produce identical results at any
// setting; this exists for benchmarking serial baselines and for
// determinism tests.
func SetParallelism(n int) { parallelism.Store(int32(n)) }

// Parallelism returns the current worker cap (GOMAXPROCS if unset).
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelFor runs f(worker, i) for i in [0,n) across min(workers, n)
// goroutines — the one worker loop of the repo's kernels and engines.
// Iterations are claimed from a shared counter; f sees a stable worker id in
// [0, workers) for per-worker scratch buffers. Determinism is the caller's
// job: f(w, i)'s externally visible output must depend on i alone, never on
// w or on claim order.
func ParallelFor(workers, n int, f func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// bfsInto runs a BFS from src over the flat arrays, writing hop distances
// (-1 for unreachable) into dist and using queue as scratch. Both must have
// length c.n. It returns the number of reached nodes (including src).
func (c *CSR) bfsInto(src int, dist []int32, queue []int32) int {
	for i := range dist {
		dist[i] = -1
	}
	return c.bfsFrom(src, dist, queue)
}

// bfsFrom is bfsInto over a dist the caller filled: -1 where the BFS may go,
// anything non-negative where it must not. It returns the number of nodes it
// reached (including src).
func (c *CSR) bfsFrom(src int, dist []int32, queue []int32) int {
	dist[src] = 0
	queue[0] = int32(src)
	head, tail := 0, 1
	for head < tail {
		u := queue[head]
		head++
		du := dist[u]
		for _, v := range c.neighbor[c.rowStart[u]:c.rowStart[u+1]] {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue[tail] = v
				tail++
			}
		}
	}
	return tail
}

// bfsWorkers fans BFS sources across the worker pool; emit(i, dist) receives
// each source's distance row (a per-worker scratch buffer, valid only inside
// the call) and must only write state addressed by i.
func (c *CSR) bfsWorkers(sources []int, emit func(i int, dist []int32)) {
	workers := Parallelism()
	if workers > len(sources) {
		workers = len(sources)
	}
	if workers < 1 {
		workers = 1
	}
	type scratch struct {
		dist, queue []int32
	}
	buf := make([]scratch, workers)
	ParallelFor(Parallelism(), len(sources), func(w, i int) {
		if buf[w].dist == nil {
			buf[w] = scratch{dist: make([]int32, c.n), queue: make([]int32, c.n)}
		}
		c.bfsInto(sources[i], buf[w].dist, buf[w].queue)
		emit(i, buf[w].dist)
	})
}

// BFSBuffer keeps the rows of a BFSManyInto call for the next one to write
// over.
type BFSBuffer struct {
	rows [][]int
	all  []int
}

// BFSManyInto returns the BFS distance rows for the given sources (rows[i]
// is the row for sources[i], -1 where unreachable), computed in parallel and
// identical at any parallelism setting. The rows share buf's backing array,
// which is grown only when a call needs more than any before it; the result
// is valid until buf's next call.
func (c *CSR) BFSManyInto(buf *BFSBuffer, sources []int) [][]int {
	if cap(buf.rows) < len(sources) {
		buf.rows = make([][]int, len(sources))
	}
	if cap(buf.all) < len(sources)*c.n {
		buf.all = make([]int, len(sources)*c.n)
	}
	rows, all := buf.rows[:len(sources)], buf.all[:len(sources)*c.n]
	c.bfsWorkers(sources, func(i int, dist []int32) {
		row := all[i*c.n : (i+1)*c.n : (i+1)*c.n]
		for v, d := range dist {
			row[v] = int(d)
		}
		rows[i] = row
	})
	return rows
}

// PathStats summarizes the shortest-path length distribution of a graph in
// one (parallel) all-pairs BFS sweep: the diameter and the mean over ordered
// distinct pairs. Connected is false for disconnected graphs or n < 2, in
// which case Diameter is -1 and Mean is NaN.
type PathStats struct {
	Diameter  int
	Mean      float64
	Connected bool
}

// PathStats computes the diameter and mean shortest path in a single sweep.
// Per-worker partials are merged with exact integer arithmetic, so the
// result is identical at any parallelism setting.
func (c *CSR) PathStats() PathStats {
	if c.n < 2 {
		return PathStats{Diameter: -1, Mean: math.NaN()}
	}
	workers := Parallelism()
	if workers > c.n {
		workers = c.n
	}
	if workers < 1 {
		workers = 1
	}
	type partial struct {
		diam         int32
		sum          int64
		disconnected bool
		_            [40]byte // pad to a cache line: partials are per-worker hot
	}
	parts := make([]partial, workers)
	type scratch struct {
		dist, queue []int32
	}
	buf := make([]scratch, workers)
	ParallelFor(Parallelism(), c.n, func(w, src int) {
		if buf[w].dist == nil {
			buf[w] = scratch{dist: make([]int32, c.n), queue: make([]int32, c.n)}
		}
		p := &parts[w]
		if reached := c.bfsInto(src, buf[w].dist, buf[w].queue); reached < c.n {
			p.disconnected = true
			return
		}
		for _, d := range buf[w].dist {
			p.sum += int64(d)
			if d > p.diam {
				p.diam = d
			}
		}
	})
	var diam int32
	var sum int64
	for i := range parts {
		if parts[i].disconnected {
			return PathStats{Diameter: -1, Mean: math.NaN()}
		}
		sum += parts[i].sum
		if parts[i].diam > diam {
			diam = parts[i].diam
		}
	}
	pairs := int64(c.n) * int64(c.n-1)
	return PathStats{
		Diameter:  int(diam),
		Mean:      float64(sum) / float64(pairs),
		Connected: true,
	}
}

// Connected reports whether the graph is connected (vacuously true for
// n <= 1), via one BFS over the flat arrays.
func (c *CSR) Connected() bool {
	if c.n <= 1 {
		return true
	}
	dist := make([]int32, c.n)
	queue := make([]int32, c.n)
	return c.bfsInto(0, dist, queue) == c.n
}
