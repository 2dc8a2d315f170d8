package search

import (
	"errors"
	"fmt"
	"math/rand"

	"beyondft/internal/graph"
	"beyondft/internal/topology"
)

// Move is one candidate transformation of a topology instance. Rewiring
// moves (swap, rebalance) perturb the current graph in place and are exactly
// invertible; parameter moves (param) rebuild a fresh generator instance and
// carry the new parameter value plus the build seed instead.
type Move struct {
	Kind string `json:"kind"` // swap | rebalance | param

	// swap: edges (A,B) and (C,D) become (A,C) and (B,D).
	// rebalance: edge (A,B) becomes (A,C); B loses a network port (left
	// idle), C spends a free one.
	A int `json:"a,omitempty"`
	B int `json:"b,omitempty"`
	C int `json:"c,omitempty"`
	D int `json:"d,omitempty"`

	// param: the stepped generator parameter and its new value; Seed is the
	// deterministic instance-build seed.
	Param string `json:"param,omitempty"` // degree | resize | lift
	Value int    `json:"value,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
}

// String renders the move for search traces. It is part of the determinism
// contract: byte-identical traces across runs include these strings.
func (m Move) String() string {
	switch m.Kind {
	case "swap":
		return fmt.Sprintf("swap(%d-%d,%d-%d)", m.A, m.B, m.C, m.D)
	case "rebalance":
		return fmt.Sprintf("rebalance(%d-%d>%d-%d)", m.A, m.B, m.A, m.C)
	case "param":
		return fmt.Sprintf("param(%s=%d)", m.Param, m.Value)
	default:
		return fmt.Sprintf("move(%s)", m.Kind)
	}
}

// Rewiring move errors. ErrMoveInvalid means a precondition does not hold on
// this graph (the move is rejected without mutating anything);
// ErrDisconnects means ApplyChecked rolled the move back because it would
// disconnect the network.
var (
	ErrMoveInvalid = errors.New("search: move preconditions violated")
	ErrDisconnects = errors.New("search: move would disconnect the graph")
	errNotRewiring = errors.New("search: not a rewiring move")
)

// Proposal retry budgets before giving up on a graph (tiny or
// near-complete graphs can have no valid move of a family).
const (
	swapAttempts      = 32
	rebalanceAttempts = 16
)

// ProposeSwap draws a random double-edge swap that is valid on t's current
// graph: two distinct edges (A,B), (C,D) on four distinct switches with no
// existing (A,C) or (B,D) edge, so applying it preserves both the degree
// sequence and simplicity. Returns ok=false if no valid swap was found
// within the attempt budget (tiny or near-complete graphs).
func ProposeSwap(t *topology.Topology, rng *rand.Rand) (Move, bool) {
	return proposeSwap(t.G, t.G.Edges(), rng)
}

// proposeSwap is ProposeSwap given g's edge list, which a batch of proposals
// from one state lists once.
func proposeSwap(g *graph.Graph, edges []graph.Edge, rng *rand.Rand) (Move, bool) {
	if len(edges) < 2 {
		return Move{}, false
	}
	for attempt := 0; attempt < swapAttempts; attempt++ {
		i := rng.Intn(len(edges))
		j := rng.Intn(len(edges))
		if i == j {
			continue
		}
		a, b := edges[i].U, edges[i].V
		c, d := edges[j].U, edges[j].V
		// Random orientation: (A,B),(C,D) -> (A,C),(B,D) covers only one of
		// the two pairings of the four endpoints; flipping C/D covers the
		// other.
		if rng.Intn(2) == 1 {
			c, d = d, c
		}
		m := Move{Kind: "swap", A: a, B: b, C: c, D: d}
		if validSwap(g, m) {
			return m, true
		}
	}
	return Move{}, false
}

func validSwap(g *graph.Graph, m Move) bool {
	a, b, c, d := m.A, m.B, m.C, m.D
	if a == c || a == d || b == c || b == d || a == b || c == d {
		return false
	}
	return g.HasEdge(a, b) && g.HasEdge(c, d) && !g.HasEdge(a, c) && !g.HasEdge(b, d)
}

// proposeRebalance draws a random port-rebalance move for non-regular
// graphs, given the edge list of t's graph: re-home one endpoint of an edge
// (A,B) to a switch C that has a free port, moving a unit of network degree
// from B to C while total port spend is unchanged. Requires SwitchPorts > 0
// to know the port budget. Returns ok=false when no valid move exists
// (regular full graphs).
func proposeRebalance(t *topology.Topology, edges []graph.Edge, rng *rand.Rand) (Move, bool) {
	if t.SwitchPorts <= 0 {
		return Move{}, false
	}
	n := t.G.N()
	if len(edges) == 0 || n < 3 {
		return Move{}, false
	}
	for attempt := 0; attempt < rebalanceAttempts; attempt++ {
		e := edges[rng.Intn(len(edges))]
		a, b := e.U, e.V
		if rng.Intn(2) == 1 {
			a, b = b, a
		}
		c := rng.Intn(n)
		m := Move{Kind: "rebalance", A: a, B: b, C: c}
		if validRebalance(t, m) {
			return m, true
		}
	}
	return Move{}, false
}

func validRebalance(t *topology.Topology, m Move) bool {
	a, b, c := m.A, m.B, m.C
	if c == a || c == b || a == b {
		return false
	}
	if !t.G.HasEdge(a, b) || t.G.HasEdge(a, c) {
		return false
	}
	// C needs a free port; B keeps at least one network link so it cannot
	// be stranded outright (connectivity is still re-checked after apply).
	if t.SwitchPorts <= 0 || t.G.Degree(c)+t.Servers[c] >= t.SwitchPorts {
		return false
	}
	return t.G.Degree(b) >= 2
}

// Apply mutates t's graph by the rewiring move m after re-validating its
// preconditions. Param moves are not applicable (they rebuild instances; see
// buildParams). Apply does not check connectivity — use ApplyChecked for the
// reject-on-disconnect contract, or call Undo yourself.
func Apply(t *topology.Topology, m Move) error {
	switch m.Kind {
	case "swap":
		if !validSwap(t.G, m) {
			return ErrMoveInvalid
		}
		t.G.RemoveEdge(m.A, m.B)
		t.G.RemoveEdge(m.C, m.D)
		t.G.AddEdge(m.A, m.C)
		t.G.AddEdge(m.B, m.D)
		return nil
	case "rebalance":
		if !validRebalance(t, m) {
			return ErrMoveInvalid
		}
		t.G.RemoveEdge(m.A, m.B)
		t.G.AddEdge(m.A, m.C)
		return nil
	default:
		return errNotRewiring
	}
}

// Undo exactly inverts a rewiring move previously applied with Apply: the
// graph's canonical edge list is restored bit-for-bit.
func Undo(t *topology.Topology, m Move) error {
	switch m.Kind {
	case "swap":
		if !t.G.HasEdge(m.A, m.C) || !t.G.HasEdge(m.B, m.D) {
			return ErrMoveInvalid
		}
		t.G.RemoveEdge(m.A, m.C)
		t.G.RemoveEdge(m.B, m.D)
		t.G.AddEdge(m.A, m.B)
		t.G.AddEdge(m.C, m.D)
		return nil
	case "rebalance":
		if !t.G.HasEdge(m.A, m.C) {
			return ErrMoveInvalid
		}
		t.G.RemoveEdge(m.A, m.C)
		t.G.AddEdge(m.A, m.B)
		return nil
	default:
		return errNotRewiring
	}
}

// ApplyChecked applies a rewiring move and verifies the graph stays
// connected; a disconnecting move is rolled back and reported as
// ErrDisconnects, leaving t unchanged.
func ApplyChecked(t *topology.Topology, m Move) error {
	if err := Apply(t, m); err != nil {
		return err
	}
	if !t.G.Connected() {
		if err := Undo(t, m); err != nil {
			// Cannot happen: Undo of a just-applied move always validates.
			panic(fmt.Sprintf("search: rollback failed: %v", err))
		}
		return ErrDisconnects
	}
	return nil
}
