package topology

import (
	"fmt"
	"math/rand"

	"beyondft/internal/graph"
)

// Xpander is a deterministic-structure expander network (Valadarsky et al.,
// CoNEXT'16) built by lifting the complete graph K_{d+1}: d+1 meta-nodes of
// lift switches each; every meta-node pair is joined by a random perfect
// matching between their switch sets, so every switch has network degree d.
type Xpander struct {
	Topology
	D    int // network degree per switch
	Lift int // switches per meta-node
}

// NewXpander builds an Xpander with network degree d, lift order lift
// (switches per meta-node, so (d+1)*lift switches total), and
// serversPerSwitch servers per switch.
func NewXpander(d, lift, serversPerSwitch int, rng *rand.Rand) *Xpander {
	if d < 2 {
		panic(fmt.Sprintf("xpander: degree d=%d must be >= 2", d))
	}
	if lift < 1 {
		panic(fmt.Sprintf("xpander: lift=%d must be >= 1", lift))
	}
	meta := d + 1
	n := meta * lift
	for {
		g := graph.New(n)
		// Switch (m, i) has index m*lift + i.
		for a := 0; a < meta; a++ {
			for b := a + 1; b < meta; b++ {
				perm := randomMatchingPermutation(lift, rng, a, b)
				for i := 0; i < lift; i++ {
					g.AddEdge(a*lift+i, b*lift+perm[i])
				}
			}
		}
		if g.Connected() {
			servers := make([]int, n)
			for i := range servers {
				servers[i] = serversPerSwitch
			}
			return &Xpander{
				Topology: Topology{
					Name:        fmt.Sprintf("xpander-d%d-l%d", d, lift),
					G:           g,
					Servers:     servers,
					SwitchPorts: d + serversPerSwitch,
				},
				D:    d,
				Lift: lift,
			}
		}
	}
}

// randomMatchingPermutation returns a uniformly random permutation of
// [0,lift). The a,b parameters are unused entropy hints kept for clarity.
func randomMatchingPermutation(lift int, rng *rand.Rand, a, b int) []int {
	_ = a
	_ = b
	perm := rng.Perm(lift)
	return perm
}
