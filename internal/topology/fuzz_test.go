package topology

import (
	"math/rand"
	"testing"
)

// FuzzTopologyGenerators checks the generator postconditions the rest of the
// system relies on (routing panics on disconnected graphs, the fluid models
// assume the advertised degrees): Jellyfish must produce a connected simple
// r-regular graph, Xpander a connected d-regular lift of K_{d+1}, and both
// must pass Topology.Validate's port-budget accounting.
func FuzzTopologyGenerators(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(8), uint8(3))
	f.Add(int64(2), uint8(1), uint8(3), uint8(4))
	f.Add(int64(7), uint8(0), uint8(15), uint8(6))
	f.Add(int64(9), uint8(1), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, kind, aRaw, bRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		switch kind % 2 {
		case 0: // Jellyfish: n switches of degree r
			n := 4 + int(aRaw%16) // 4..19
			r := 2 + int(bRaw%4)  // 2..5
			if r >= n {
				r = n - 1
			}
			if n*r%2 != 0 { // n*r must be even for an r-regular graph
				r--
			}
			if r < 2 {
				return
			}
			topo := NewJellyfish(n, r, 2, rng)
			if !topo.G.Connected() {
				t.Fatalf("jellyfish n=%d r=%d: disconnected", n, r)
			}
			if deg, ok := topo.G.IsRegular(); !ok || deg != r {
				t.Fatalf("jellyfish n=%d r=%d: not r-regular (deg=%d ok=%v)", n, r, deg, ok)
			}
			for u := 0; u < n; u++ {
				if topo.G.HasEdge(u, u) {
					t.Fatalf("jellyfish: self-loop at %d", u)
				}
			}
			if err := topo.Validate(); err != nil {
				t.Fatalf("jellyfish n=%d r=%d: %v", n, r, err)
			}
		case 1: // Xpander: degree d, lift order l
			d := 2 + int(aRaw%4)    // 2..5
			lift := 1 + int(bRaw%6) // 1..6
			x := NewXpander(d, lift, 2, rng)
			n := (d + 1) * lift
			if x.G.N() != n {
				t.Fatalf("xpander d=%d lift=%d: %d switches, want %d", d, lift, x.G.N(), n)
			}
			if !x.G.Connected() {
				t.Fatalf("xpander d=%d lift=%d: disconnected", d, lift)
			}
			if deg, ok := x.G.IsRegular(); !ok || deg != d {
				t.Fatalf("xpander d=%d lift=%d: not d-regular (deg=%d ok=%v)", d, lift, deg, ok)
			}
			// The lift structure: no edge stays inside a meta-node.
			for _, e := range x.G.Edges() {
				if e.U/x.Lift == e.V/x.Lift {
					t.Fatalf("xpander: intra-meta-node edge %d-%d", e.U, e.V)
				}
			}
			if err := x.Validate(); err != nil {
				t.Fatalf("xpander d=%d lift=%d: %v", d, lift, err)
			}
		}
	})
}
