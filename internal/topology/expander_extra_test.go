package topology

import (
	"math"
	"math/rand"
	"testing"
)

func TestDragonFlyStructure(t *testing.T) {
	// Balanced dragonfly a=4, h=2: 9 groups of 4 routers = 36 routers.
	d := NewDragonFly(4, 2, 2)
	if d.Groups() != 9 {
		t.Fatalf("groups = %d, want 9", d.Groups())
	}
	if d.NumSwitches() != 36 {
		t.Fatalf("switches = %d, want 36", d.NumSwitches())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Intra-group cliques.
	for grp := 0; grp < d.Groups(); grp++ {
		for r1 := 0; r1 < d.A; r1++ {
			for r2 := r1 + 1; r2 < d.A; r2++ {
				if !d.G.HasEdge(grp*d.A+r1, grp*d.A+r2) {
					t.Fatalf("group %d not a clique", grp)
				}
			}
		}
	}
	// Every group pair joined by exactly one global link.
	links := map[[2]int]int{}
	for _, e := range d.G.Edges() {
		if gu, gv := e.U/d.A, e.V/d.A; gu != gv {
			links[[2]int{min(gu, gv), max(gu, gv)}] += e.Mult
		}
	}
	for u := 0; u < d.Groups(); u++ {
		for v := u + 1; v < d.Groups(); v++ {
			if links := links[[2]int{u, v}]; links != 1 {
				t.Fatalf("groups %d,%d share %d global links, want 1", u, v, links)
			}
		}
	}
	// Router degree = (a-1) intra + h global.
	for r := 0; r < d.NumSwitches(); r++ {
		if got := d.G.Degree(r); got != d.A-1+d.H {
			t.Fatalf("router %d degree %d, want %d", r, got, d.A-1+d.H)
		}
	}
	// The canonical dragonfly diameter is 3 (local, global, local).
	if diam := d.G.PathStats().Diameter; diam > 3 {
		t.Fatalf("diameter = %d, want <= 3", diam)
	}
}

func TestLPSRamanujan(t *testing.T) {
	// X^{5,13}: 6-regular on PGL(2,13) = 2184 vertices (5 is a
	// non-residue mod 13).
	l := NewLPS(5, 13, 1)
	if l.NumSwitches() != 2184 {
		t.Fatalf("vertices = %d, want |PGL(2,13)| = 2184", l.NumSwitches())
	}
	if !l.OverPGL {
		t.Fatalf("5 is a non-residue mod 13: expected PGL")
	}
	d, ok := l.G.IsRegular()
	if !ok || d != 6 {
		t.Fatalf("degree = %d (regular=%v), want p+1 = 6", d, ok)
	}
	if !l.G.Connected() {
		t.Fatalf("disconnected LPS graph")
	}
	rng := rand.New(rand.NewSource(1))
	lambda2 := l.G.SecondEigenvalue(250, rng)
	ramanujan := 2 * math.Sqrt(5)
	if lambda2 > ramanujan+0.15 {
		t.Fatalf("lambda2 = %.3f exceeds the Ramanujan bound 2*sqrt(p) = %.3f", lambda2, ramanujan)
	}
}

func TestLPSPSLCase(t *testing.T) {
	// X^{13,29}: 13 is a QR mod 29 (10² = 100 ≡ 13), so the graph is over
	// PSL(2,29) with 29·(29²−1)/2 = 12180 vertices, 14-regular.
	l := NewLPS(13, 29, 0)
	want := 29 * (29*29 - 1) / 2
	if l.NumSwitches() != want {
		t.Fatalf("vertices = %d, want |PSL(2,29)| = %d", l.NumSwitches(), want)
	}
	if l.OverPGL {
		t.Fatalf("13 is a residue mod 29: expected PSL")
	}
	if d, ok := l.G.IsRegular(); !ok || d != 14 {
		t.Fatalf("degree = %d, want 14", d)
	}
}

func TestLPSRejectsBadParams(t *testing.T) {
	for _, c := range [][2]int{{4, 13}, {5, 15}, {5, 5}, {3, 13}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LPS(%d,%d) should panic", c[0], c[1])
				}
			}()
			NewLPS(c[0], c[1], 0)
		}()
	}
}
