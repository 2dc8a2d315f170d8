package topology

import (
	"fmt"

	"beyondft/internal/graph"
)

// DragonFly is the Kim et al. (ISCA'08) topology §4.2 cites as evidence
// that non-Clos static networks are deployable: groups of routers wired as
// a clique internally, with global links spread round-robin so every group
// pair is connected.
type DragonFly struct {
	Topology
	// A is routers per group, H global links per router, P servers per
	// router; groups = A*H + 1 (the balanced configuration).
	A, H, P int
}

// NewDragonFly builds the balanced dragonfly: g = a·h + 1 groups, each a
// clique of a routers; router r of group G owns h global links, attached so
// that every ordered pair of groups shares exactly one global link.
func NewDragonFly(a, h, p int) *DragonFly {
	if a < 1 || h < 1 || p < 0 {
		panic(fmt.Sprintf("dragonfly: invalid a=%d h=%d p=%d", a, h, p))
	}
	groups := a*h + 1
	n := groups * a
	g := graph.New(n)
	id := func(group, router int) int { return group*a + router }

	// Intra-group cliques.
	for grp := 0; grp < groups; grp++ {
		for r1 := 0; r1 < a; r1++ {
			for r2 := r1 + 1; r2 < a; r2++ {
				g.AddEdge(id(grp, r1), id(grp, r2))
			}
		}
	}
	// Global links: group grp's j-th global port (j = router*h + slot)
	// connects toward group (grp + j + 1) mod groups. The peer group's
	// matching port index points back, giving a consistent pairing: the
	// link between groups u < v is owned by offset d = v - u - 1 at u and
	// by offset groups - d - 2 ... — we wire each unordered group pair once.
	for u := 0; u < groups; u++ {
		for j := 0; j < a*h; j++ {
			v := (u + j + 1) % groups
			if u < v {
				// Port j at group u pairs with the port at v whose target
				// is u: j' with (v + j' + 1) % groups == u.
				jp := (u - v - 1 + 2*groups) % groups
				g.AddEdge(id(u, j/h), id(v, jp/h))
			}
		}
	}

	servers := make([]int, n)
	for i := range servers {
		servers[i] = p
	}
	return &DragonFly{
		Topology: Topology{
			Name:        fmt.Sprintf("dragonfly-a%d-h%d", a, h),
			G:           g,
			Servers:     servers,
			SwitchPorts: (a - 1) + h + p,
		},
		A: a, H: h, P: p,
	}
}

// Groups returns the number of groups.
func (d *DragonFly) Groups() int { return d.A*d.H + 1 }
