package tm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"beyondft/internal/graph"
)

func ringGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func TestRandomPermutationStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	racks := []int{2, 4, 6, 8, 10, 12}
	m := RandomPermutation(racks, func(int) int { return 5 }, rng)
	if len(m.Demands) != 6 {
		t.Fatalf("demands = %d, want 6 (3 pairs x 2 directions)", len(m.Demands))
	}
	if err := m.ValidateHose(func(int) int { return 5 }); err != nil {
		t.Fatal(err)
	}
	// Every rack appears exactly once as source and once as destination.
	srcCount := map[int]int{}
	for _, d := range m.Demands {
		srcCount[d.Src]++
		if d.Amount != 5 {
			t.Fatalf("amount = %v, want 5", d.Amount)
		}
	}
	for _, r := range racks {
		if srcCount[r] != 1 {
			t.Fatalf("rack %d appears %d times as source", r, srcCount[r])
		}
	}
}

func TestRandomPermutationOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("odd rack count should panic")
		}
	}()
	RandomPermutation([]int{1, 2, 3}, func(int) int { return 1 }, rand.New(rand.NewSource(1)))
}

func TestLongestMatchingPrefersDistantRacks(t *testing.T) {
	// On a long ring, longest matching should pair racks far apart:
	// total distance should beat a poor (adjacent) matching by a wide margin.
	g := ringGraph(12)
	racks := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	m := LongestMatching(g, racks, func(int) int { return 1 })
	if len(m.Demands) != 12 {
		t.Fatalf("demands = %d, want 12", len(m.Demands))
	}
	total := 0
	for _, d := range m.Demands {
		total += graph.ViewBFS(g.Frozen(), d.Src)[d.Dst]
	}
	// Optimal pairing on a 12-ring matches antipodal nodes: distance 6 each,
	// 12 directed demands -> 72. Adjacent pairing would give 12.
	if total < 60 {
		t.Fatalf("total matched distance = %d, want >= 60 (near-antipodal)", total)
	}
}

func TestAllToAllHoseTight(t *testing.T) {
	racks := []int{0, 1, 2, 3}
	m := AllToAll(racks, func(int) int { return 6 })
	if err := m.ValidateHose(func(int) int { return 6 }); err != nil {
		t.Fatal(err)
	}
	// Each rack's total outgoing demand is exactly its server count.
	out := map[int]float64{}
	for _, d := range m.Demands {
		out[d.Src] += d.Amount
	}
	for _, r := range racks {
		if math.Abs(out[r]-6) > 1e-9 {
			t.Fatalf("rack %d sends %v, want 6", r, out[r])
		}
	}
}

func TestValidateHoseCatchesViolations(t *testing.T) {
	m := &TM{Name: "bad", Demands: []Demand{{Src: 0, Dst: 1, Amount: 10}}}
	if err := m.ValidateHose(func(int) int { return 5 }); err == nil {
		t.Fatalf("overloaded source not caught")
	}
	m2 := &TM{Name: "self", Demands: []Demand{{Src: 0, Dst: 0, Amount: 1}}}
	if err := m2.ValidateHose(func(int) int { return 5 }); err == nil {
		t.Fatalf("self demand not caught")
	}
	m3 := &TM{Name: "neg", Demands: []Demand{{Src: 0, Dst: 1, Amount: -1}}}
	if err := m3.ValidateHose(func(int) int { return 5 }); err == nil {
		t.Fatalf("negative demand not caught")
	}
}

func TestHeterogeneousServerCounts(t *testing.T) {
	serversOf := func(r int) int { return r + 1 } // rack r has r+1 servers
	m := RandomPermutation([]int{0, 3}, serversOf, rand.New(rand.NewSource(2)))
	// Pair (0,3): min(1, 4) = 1.
	for _, d := range m.Demands {
		if d.Amount != 1 {
			t.Fatalf("amount = %v, want min(1,4)=1", d.Amount)
		}
	}
	if err := m.ValidateHose(serversOf); err != nil {
		t.Fatal(err)
	}
}

// TestLongestMatchingDeterministicAcrossWorkers asserts the parallel
// per-rack BFS fan-out inside LongestMatching yields a byte-identical TM at
// worker counts 1, 2, and NumCPU.
func TestLongestMatchingDeterministicAcrossWorkers(t *testing.T) {
	defer graph.SetParallelism(0)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		n := 20 + rng.Intn(60)
		g := ringGraph(n)
		// Chords make shortest paths (and hence matching weights) less trivial.
		for i := 0; i < n/2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		var racks []int
		for r := 0; r < n; r += 2 {
			racks = append(racks, r)
		}
		var want string
		for _, w := range []int{1, 2, runtime.NumCPU()} {
			graph.SetParallelism(w)
			m := LongestMatching(g, racks, func(int) int { return 4 })
			got := fmt.Sprintf("%v", m)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("trial %d: TM differs at %d workers:\n got %s\nwant %s", trial, w, got, want)
			}
		}
	}
}
