package topology

import (
	"fmt"

	"beyondft/internal/graph"
)

// FatTree describes a (possibly core-oversubscribed) three-layer k-ary
// fat-tree, with the switch index layout needed by routing and by the
// pod-to-pod traffic matrices of §2.1.
type FatTree struct {
	Topology
	K int
	// CorePerColumn is the number of core switches each aggregation column
	// connects to; k/2 in the full fat-tree, fewer when oversubscribed.
	CorePerColumn int
	// Index layout: cores [0, numCore), then per pod k/2 aggs followed by
	// k/2 edges.
	NumCore  int
	AggBase  []int // AggBase[p] = first aggregation switch of pod p
	EdgeBase []int // EdgeBase[p] = first edge switch of pod p
}

// NewFatTree builds a full-bandwidth k-ary fat-tree: (k/2)² core switches,
// k pods of k/2 aggregation and k/2 edge switches, k/2 servers per edge
// switch. k must be even and >= 2. For k=16 this is the paper's baseline:
// 320 switches, 1024 servers, all 16-port.
func NewFatTree(k int) *FatTree {
	return NewFatTreeOversubscribed(k, k/2)
}

// NewFatTreeOversubscribed builds a fat-tree whose aggregation columns
// connect to only corePerColumn core switches each (out of the full k/2),
// i.e. the core layer is oversubscribed to corePerColumn/(k/2) of full
// capacity. corePerColumn must be in [1, k/2].
func NewFatTreeOversubscribed(k, corePerColumn int) *FatTree {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("fattree: k must be even and >= 2, got %d", k))
	}
	half := k / 2
	if corePerColumn < 1 || corePerColumn > half {
		panic(fmt.Sprintf("fattree: corePerColumn %d out of [1,%d]", corePerColumn, half))
	}
	numCore := half * corePerColumn // one group of corePerColumn per agg column
	numPods := k
	n := numCore + numPods*(half+half)
	g := graph.New(n)
	servers := make([]int, n)

	ft := &FatTree{
		K:             k,
		CorePerColumn: corePerColumn,
		NumCore:       numCore,
		AggBase:       make([]int, numPods),
		EdgeBase:      make([]int, numPods),
	}
	for p := 0; p < numPods; p++ {
		ft.AggBase[p] = numCore + p*k
		ft.EdgeBase[p] = numCore + p*k + half
	}
	for p := 0; p < numPods; p++ {
		for e := 0; e < half; e++ {
			edge := ft.EdgeBase[p] + e
			servers[edge] = half
			for a := 0; a < half; a++ {
				g.AddEdge(edge, ft.AggBase[p]+a)
			}
		}
		// Aggregation column a (the a-th agg of every pod) connects to core
		// group a: cores [a*corePerColumn, (a+1)*corePerColumn).
		for a := 0; a < half; a++ {
			agg := ft.AggBase[p] + a
			for c := 0; c < corePerColumn; c++ {
				g.AddEdge(agg, a*corePerColumn+c)
			}
		}
	}
	ft.Topology = Topology{
		Name:        fmt.Sprintf("fattree-k%d-core%d", k, corePerColumn),
		G:           g,
		Servers:     servers,
		SwitchPorts: k,
	}
	if corePerColumn == half {
		ft.Name = fmt.Sprintf("fattree-k%d", k)
	}
	return ft
}

// OversubscriptionRatio returns the core-layer capacity fraction
// corePerColumn/(k/2); 1.0 for a full-bandwidth fat-tree.
func (ft *FatTree) OversubscriptionRatio() float64 {
	return float64(ft.CorePerColumn) / float64(ft.K/2)
}

// CostFraction returns the ratio of this fat-tree's port count (network +
// server) to that of the full-bandwidth fat-tree with the same k.
func (ft *FatTree) CostFraction() float64 {
	full := NewFatTree(ft.K)
	return float64(ft.TotalPortsUsed()) / float64(full.TotalPortsUsed())
}

// NewFatTreeAtCost builds the largest core-oversubscribed fat-tree whose
// total port cost does not exceed costFraction of the full k-ary fat-tree.
// This mirrors the paper's "77%-fat-tree" comparison point (Fig. 11): an
// oversubscribed fat-tree built at ~23% lower cost.
func NewFatTreeAtCost(k int, costFraction float64) *FatTree {
	best := NewFatTreeOversubscribed(k, 1)
	for c := 1; c <= k/2; c++ {
		ft := NewFatTreeOversubscribed(k, c)
		if ft.CostFraction() <= costFraction {
			best = ft
		}
	}
	return best
}
