package topology

import (
	"fmt"

	"beyondft/internal/graph"
)

// SlimFly is the diameter-2 McKay–Miller–Širáň topology of Besta & Hoefler
// (SC'14). This implementation covers prime q with q ≡ 1 (mod 4), which
// includes every instance the paper evaluates (q = 17: 578 ToRs, network
// degree 25) and our scaled default (q = 5: 50 ToRs, degree 7).
type SlimFly struct {
	Topology
	Q int
}

// NewSlimFly builds the MMS graph for prime q ≡ 1 (mod 4): 2q² switches of
// network degree (3q−1)/2, each with serversPerSwitch servers.
//
// Construction: vertices are (t, x, y) with t ∈ {0,1} and x, y ∈ GF(q).
//   - (0, x, y) ~ (0, x, y′)  iff y − y′ is a nonzero quadratic residue,
//   - (1, m, c) ~ (1, m, c′)  iff c − c′ is a quadratic non-residue,
//   - (0, x, y) ~ (1, m, c)   iff y = m·x + c.
//
// Because q ≡ 1 (mod 4), −1 is a quadratic residue, so both generator sets
// are symmetric and the graph is undirected.
func NewSlimFly(q, serversPerSwitch int) *SlimFly {
	if !SlimFlyQ(q) {
		panic(fmt.Sprintf("slimfly: q=%d must be a prime ≡ 1 (mod 4)", q))
	}
	n := 2 * q * q
	g := graph.New(n)

	// Quadratic residues of GF(q)*.
	isQR := make([]bool, q)
	for a := 1; a < q; a++ {
		isQR[a*a%q] = true
	}

	id := func(t, x, y int) int { return t*q*q + x*q + y }

	// Intra-block edges.
	for x := 0; x < q; x++ {
		for y := 0; y < q; y++ {
			for yp := y + 1; yp < q; yp++ {
				d := (yp - y) % q
				if isQR[d] {
					g.AddEdge(id(0, x, y), id(0, x, yp))
				} else {
					g.AddEdge(id(1, x, y), id(1, x, yp))
				}
			}
		}
	}
	// Cross edges: (0,x,y) ~ (1,m,c) iff y = m*x + c (mod q).
	for m := 0; m < q; m++ {
		for c := 0; c < q; c++ {
			for x := 0; x < q; x++ {
				y := (m*x + c) % q
				g.AddEdge(id(0, x, y), id(1, m, c))
			}
		}
	}

	servers := make([]int, n)
	for i := range servers {
		servers[i] = serversPerSwitch
	}
	degree := (3*q - 1) / 2
	return &SlimFly{
		Topology: Topology{
			Name:        fmt.Sprintf("slimfly-q%d", q),
			G:           g,
			Servers:     servers,
			SwitchPorts: degree + serversPerSwitch,
		},
		Q: q,
	}
}

// SlimFlyQ reports whether q is a valid SlimFly parameter: a prime ≡ 1
// (mod 4). Callers taking q from outside check it before NewSlimFly panics.
func SlimFlyQ(q int) bool { return isPrime(q) && q%4 == 1 }

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}
