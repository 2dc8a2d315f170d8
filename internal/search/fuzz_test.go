package search

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"beyondft/internal/topology"
)

// FuzzRewire throws fuzzer-chosen instances and move streams at the
// rewiring layer and checks the invariants the search's correctness rests
// on: applied moves preserve simplicity, port accounting and (for swaps)
// the degree sequence; ApplyChecked never leaves a disconnected graph; a
// rejected move leaves the edge list bit-identical; apply-then-undo is the
// exact identity.
func FuzzRewire(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(10), uint8(3), uint8(0))
	f.Add(int64(3), int64(4), uint8(12), uint8(4), uint8(1))
	f.Add(int64(5), int64(6), uint8(9), uint8(5), uint8(1))
	f.Add(int64(0), int64(0), uint8(4), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, topoSeed, moveSeed int64, nRaw, rRaw, uneven uint8) {
		topoRng := rand.New(rand.NewSource(topoSeed))
		var topo *topology.Topology
		if uneven%2 == 0 {
			n := 4 + int(nRaw%12) // 4..15
			r := 2 + int(rRaw%4)  // 2..5
			if r >= n {
				r = n - 1
			}
			if n*r%2 != 0 {
				r--
			}
			if r < 2 {
				return
			}
			topo = topology.NewJellyfish(n, r, 2, topoRng)
		} else {
			// Keep every per-switch network degree in [2, ports-1] and below
			// n-1, so the degree sequence is always graphable: servers in
			// [n, 2n-1] gives 1-2 servers per switch.
			n := 7 + int(nRaw%9)     // 7..15
			ports := 4 + int(rRaw%3) // 4..6 => degrees 2..5 <= n-2
			servers := n + int(nRaw)%n
			topo = topology.NewJellyfishForServers(n, ports, servers, topoRng)
		}
		wantDeg := degreeSequence(topo)
		wantPorts := topo.TotalPortsUsed()

		rng := rand.New(rand.NewSource(moveSeed))
		for i := 0; i < 25; i++ {
			before := topo.G.Edges()
			var m Move
			var ok bool
			if rng.Intn(2) == 0 {
				m, ok = ProposeSwap(topo, rng)
			} else {
				m, ok = rebalance(topo, rng)
			}
			if !ok {
				continue
			}

			// Apply + undo must be the exact identity.
			if err := Apply(topo, m); err != nil {
				t.Fatalf("apply %s: %v", m, err)
			}
			if err := Undo(topo, m); err != nil {
				t.Fatalf("undo %s: %v", m, err)
			}
			if !reflect.DeepEqual(topo.G.Edges(), before) {
				t.Fatalf("apply+undo of %s is not the identity", m)
			}

			// ApplyChecked: connectivity or bit-identical rejection.
			err := ApplyChecked(topo, m)
			if errors.Is(err, ErrDisconnects) {
				if !reflect.DeepEqual(topo.G.Edges(), before) {
					t.Fatalf("rejected %s mutated the graph", m)
				}
				continue
			}
			if err != nil {
				t.Fatalf("apply checked %s: %v", m, err)
			}
			if !topo.G.Connected() {
				t.Fatalf("%s left the graph disconnected", m)
			}
			assertSimple(t, topo)
			if m.Kind == "swap" {
				if got := degreeSequence(topo); !reflect.DeepEqual(got, wantDeg) {
					t.Fatalf("%s changed the degree sequence", m)
				}
			} else {
				wantDeg = degreeSequence(topo) // rebalance legitimately shifts degrees
			}
			if topo.TotalPortsUsed() != wantPorts {
				t.Fatalf("%s changed port spend", m)
			}
			for v := 0; v < topo.G.N(); v++ {
				if topo.SwitchPorts > 0 && topo.G.Degree(v)+topo.Servers[v] > topo.SwitchPorts {
					t.Fatalf("%s overflowed ports on switch %d", m, v)
				}
			}
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("topology invalid after move stream: %v", err)
		}
	})
}
