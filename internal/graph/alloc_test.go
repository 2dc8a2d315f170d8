package graph_test

import (
	"math/rand"
	"testing"

	"beyondft/internal/topology"
)

// TestCloneAllocations gates Clone's allocation count on the search tier's
// benchmark start, Jellyfish(54, 9): one adjacency slice, the graph, and per
// row a map made at its final size. Growing 54 empty maps edge by edge, as
// Clone did through AddEdgeMulti, took 272.
func TestCloneAllocations(t *testing.T) {
	g := topology.NewJellyfish(54, 9, 6, rand.New(rand.NewSource(1))).G
	const limit = 220
	if got := testing.AllocsPerRun(20, func() { g.Clone() }); got > limit {
		t.Fatalf("Clone of Jellyfish(54,9): %.0f allocations, want <= %d", got, limit)
	}
	c := g.Clone()
	if c.M() != g.M() || len(c.Edges()) != len(g.Edges()) {
		t.Fatalf("clone has %d edges (%d distinct), original %d (%d)", c.M(), len(c.Edges()), g.M(), len(g.Edges()))
	}
}
