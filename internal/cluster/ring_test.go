package cluster

import (
	"fmt"
	"math"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i) // pointHash re-hashes, so any distinct strings do
	}
	return keys
}

func nodeNames(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://node%d:8080", i)
	}
	return nodes
}

// TestRingDeterministicPlacement: ownership is a pure function of the
// membership set — independent of construction order and of which process
// asks.
func TestRingDeterministicPlacement(t *testing.T) {
	nodes := nodeNames(5)
	r1 := NewRing(nodes, 64)
	shuffled := []string{nodes[3], nodes[0], nodes[4], nodes[4], nodes[1], nodes[2]} // reordered + duplicate
	r2 := NewRing(shuffled, 64)
	for _, k := range testKeys(2048) {
		if r1.Owners(k, 1)[0] != r2.Owners(k, 1)[0] {
			t.Fatalf("owner of %q depends on construction order: %q vs %q", k, r1.Owners(k, 1)[0], r2.Owners(k, 1)[0])
		}
	}
	if got := len(r1.Nodes()); got != 5 {
		t.Fatalf("nodes = %d, want 5", got)
	}
}

// TestRingBalance: with enough vnodes, every node owns a keyspace share and
// a key share within a small factor of 1/n.
func TestRingBalance(t *testing.T) {
	const n = 5
	r := NewRing(nodeNames(n), DefaultVNodes)

	shares := r.Share()
	var total float64
	for node, s := range shares {
		total += s
		if s < 0.4/n || s > 2.5/n {
			t.Errorf("node %s owns share %.4f, want within [%.4f, %.4f]", node, s, 0.4/n, 2.5/n)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %.12f, want 1", total)
	}

	counts := map[string]int{}
	keys := testKeys(20000)
	for _, k := range keys {
		counts[r.Owners(k, 1)[0]]++
	}
	for node, cnt := range counts {
		frac := float64(cnt) / float64(len(keys))
		if frac < 0.4/n || frac > 2.5/n {
			t.Errorf("node %s owns %.4f of keys, want near %.4f", node, frac, 1.0/n)
		}
	}
}

// TestRingRebalanceBounds: adding one node to an n-node ring moves roughly
// 1/(n+1) of the keys — all of them *to* the new node — and removing it
// moves exactly the keys it owned, to survivors. This is the property that
// makes membership changes cheap: a fleet of N caches invalidates ~1/N of
// its working set, not all of it.
func TestRingRebalanceBounds(t *testing.T) {
	const n = 5
	nodes := nodeNames(n + 1)
	keys := testKeys(20000)

	before := NewRing(nodes[:n], DefaultVNodes)
	after := NewRing(nodes, DefaultVNodes)

	moved := 0
	for _, k := range keys {
		ob, oa := before.Owners(k, 1)[0], after.Owners(k, 1)[0]
		if ob != oa {
			moved++
			if oa != nodes[n] {
				t.Fatalf("key %q moved %q -> %q, but only the new node may gain keys", k, ob, oa)
			}
		}
	}
	ideal := float64(len(keys)) / float64(n+1)
	if f := float64(moved); f < 0.5*ideal || f > 2.0*ideal {
		t.Fatalf("adding 1 of %d nodes moved %d keys, want within [%.0f, %.0f] (ideal %.0f)",
			n+1, moved, 0.5*ideal, 2.0*ideal, ideal)
	}

	// Removal is the mirror image: only keys owned by the removed node move.
	for _, k := range keys {
		oa, ob := after.Owners(k, 1)[0], before.Owners(k, 1)[0]
		if oa == nodes[n] {
			continue // re-homed to some survivor, any is fine
		}
		if oa != ob {
			t.Fatalf("key %q owned by surviving %q moved on removal", k, oa)
		}
	}
}

// TestRingOwners: the hedge chain starts at the owner, has no duplicates,
// and is the same from every node's point of view.
func TestRingOwners(t *testing.T) {
	r := NewRing(nodeNames(4), 32)
	for _, k := range testKeys(256) {
		owners := r.Owners(k, 3)
		if len(owners) != 3 {
			t.Fatalf("Owners(%q, 3) = %v", k, owners)
		}
		if owners[0] != r.Owners(k, 1)[0] {
			t.Fatalf("Owners(k, 3)[0] = %q, Owners(k, 1)[0] = %q", owners[0], r.Owners(k, 1)[0])
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate owner %q in %v", o, owners)
			}
			seen[o] = true
		}
	}
	if got := r.Owners("k", 99); len(got) != 4 {
		t.Fatalf("Owners capped at %d, want 4 (membership size)", len(got))
	}
	var empty Ring
	if empty.Owners("k", 1) != nil || empty.Owners("k", 2) != nil {
		t.Fatal("empty ring must own nothing")
	}
}

// TestRingShareSums: Share sums to 1 for every ring size, including the
// degenerate single-point ring. Regression: a one-point ring's wrap-around
// arc (a point to itself) computed as 0 in uint64 subtraction, reporting
// share 0 instead of the whole circle.
func TestRingShareSums(t *testing.T) {
	cases := []struct {
		nodes, vnodes int
	}{
		{1, 1}, // the regression: one point owns the entire circle
		{1, DefaultVNodes},
		{2, 1},
		{3, 16},
		{5, DefaultVNodes},
	}
	for _, tc := range cases {
		r := NewRing(nodeNames(tc.nodes), tc.vnodes)
		var sum float64
		for node, share := range r.Share() {
			if share <= 0 {
				t.Errorf("nodes=%d vnodes=%d: node %s share %v, want > 0", tc.nodes, tc.vnodes, node, share)
			}
			sum += share
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("nodes=%d vnodes=%d: shares sum to %v, want 1", tc.nodes, tc.vnodes, sum)
		}
		if tc.nodes == 1 {
			if got := r.Share()[nodeNames(1)[0]]; math.Abs(got-1) > 1e-9 {
				t.Errorf("single-node ring share = %v, want exactly 1", got)
			}
		}
	}
}

// TestRingReplicaOwnersSurviveDeath: with R=2, removing any single node
// leaves every key with at least one of its original owners — the
// replicated-ownership invariant that makes a node death lose zero cached
// bytes. Successor sets are clockwise-stable: newOwners(key, 2) must be a
// superset of oldOwners(key, 2) minus the dead node, and a rejoin restores
// the original owner set exactly.
func TestRingReplicaOwnersSurviveDeath(t *testing.T) {
	const R = 2
	nodes := nodeNames(5)
	full := NewRing(nodes, 64)
	keys := testKeys(4096)
	for _, dead := range nodes {
		survivors := make([]string, 0, len(nodes)-1)
		for _, n := range nodes {
			if n != dead {
				survivors = append(survivors, n)
			}
		}
		after := NewRing(survivors, 64)
		for _, k := range keys {
			old := full.Owners(k, R)
			now := make(map[string]bool, R)
			for _, o := range after.Owners(k, R) {
				now[o] = true
			}
			kept := 0
			for _, o := range old {
				if o == dead {
					continue
				}
				if !now[o] {
					t.Fatalf("dead=%s key=%s: surviving owner %s evicted (old=%v new=%v)",
						dead, k, o, old, after.Owners(k, R))
				}
				kept++
			}
			if kept == 0 {
				t.Fatalf("dead=%s key=%s: no surviving owner kept (old=%v)", dead, k, old)
			}
		}
		// Rejoin: the original membership reproduces the original owners.
		rejoined := NewRing(append(append([]string{}, survivors...), dead), 64)
		for _, k := range keys[:256] {
			a, b := full.Owners(k, R), rejoined.Owners(k, R)
			if len(a) != len(b) || a[0] != b[0] || a[1] != b[1] {
				t.Fatalf("rejoin changed owners for %s: %v vs %v", k, a, b)
			}
		}
	}
}
