package cost

import (
	"math"
	"math/rand"
	"testing"

	"beyondft/internal/topology"
)

// TestGoldenFatTreeVsXpander pins the §6.4 equal-cost comparison to golden
// numbers: for each fat-tree scale, the matched-capacity Xpander (same
// switch port count, at least as many servers) must come in at roughly
// two-thirds of the fat-tree's port bill. The k=16 row is the paper's own
// configuration (320 vs 216 switches of 16 ports, ≥1024 servers, "33% lower
// cost"); the smaller rows keep the same construction honest at scales the
// smoke tests use.
func TestGoldenFatTreeVsXpander(t *testing.T) {
	cases := []struct {
		k            int
		wantServers  int     // k³/4
		wantSwitches int     // 5k²/4
		wantNetPorts int     // k³
		wantDollars  float64 // TotalPortsUsed × $215
		// The equal-cost Xpander on ~2/3 of the fat-tree's switches, each of
		// k ports: s = ⌈servers/switches⌉ servers per switch, degree k−s,
		// and the largest lift that fits the switch budget.
		xpDegree, xpLift, xpServers int
		maxPortRatio                float64 // xpander ports / fat-tree ports
	}{
		{k: 4, wantServers: 16, wantSwitches: 20, wantNetPorts: 64, wantDollars: 17_200, xpDegree: 2, xpLift: 4, xpServers: 2, maxPortRatio: 0.70},
		{k: 8, wantServers: 128, wantSwitches: 80, wantNetPorts: 512, wantDollars: 137_600, xpDegree: 5, xpLift: 8, xpServers: 3, maxPortRatio: 0.70},
		{k: 16, wantServers: 1024, wantSwitches: 320, wantNetPorts: 4096, wantDollars: 1_100_800, xpDegree: 11, xpLift: 18, xpServers: 5, maxPortRatio: 0.68},
	}
	for _, tc := range cases {
		ft := topology.NewFatTree(tc.k)
		if got := ft.TotalServers(); got != tc.wantServers {
			t.Errorf("k=%d: %d servers, want %d", tc.k, got, tc.wantServers)
		}
		if got := ft.NumSwitches(); got != tc.wantSwitches {
			t.Errorf("k=%d: %d switches, want %d", tc.k, got, tc.wantSwitches)
		}
		if got := ft.NetworkPorts(); got != tc.wantNetPorts {
			t.Errorf("k=%d: %d network ports, want %d", tc.k, got, tc.wantNetPorts)
		}
		dollars := float64(ft.TotalPortsUsed()) * StaticPortDollars()
		if math.Abs(dollars-tc.wantDollars) > 1e-6 {
			t.Errorf("k=%d: fat-tree costs $%.0f, want $%.0f", tc.k, dollars, tc.wantDollars)
		}

		xp := topology.NewXpander(tc.xpDegree, tc.xpLift, tc.xpServers, rand.New(rand.NewSource(1)))
		if err := xp.Validate(); err != nil {
			t.Errorf("k=%d: xpander invalid: %v", tc.k, err)
			continue
		}
		if xp.TotalServers() < tc.wantServers {
			t.Errorf("k=%d: xpander supports %d servers, want >= %d", tc.k, xp.TotalServers(), tc.wantServers)
		}
		if xp.SwitchPorts > tc.k {
			t.Errorf("k=%d: xpander needs %d-port switches, budget %d", tc.k, xp.SwitchPorts, tc.k)
		}
		// Matched capacity at lower cost: the port bill (ports × static $)
		// must honor the table's ratio.
		ratio := float64(xp.NumSwitches()*tc.k) / float64(ft.NumSwitches()*tc.k)
		if ratio > tc.maxPortRatio {
			t.Errorf("k=%d: xpander port ratio %.3f, want <= %.2f", tc.k, ratio, tc.maxPortRatio)
		}
	}
}

// TestGoldenDeltaTable pins δ (flexible-port premium) for every Table 1
// technology against hand-computed dollars-per-port ratios.
func TestGoldenDeltaTable(t *testing.T) {
	cases := []struct {
		tech  string
		delta float64
	}{
		{"static", 1.0},
		{"projector-low", 320.0 / 215.0},  // ≈1.488 — the paper's δ ≈ 1.5
		{"firefly", 370.0 / 215.0},        // ≈1.721
		{"projector-high", 420.0 / 215.0}, // ≈1.953
	}
	for _, tc := range cases {
		if got := Delta(tc.tech); math.Abs(got-tc.delta) > 1e-12 {
			t.Errorf("Delta(%s) = %v, want %v", tc.tech, got, tc.delta)
		}
	}
	if got := Delta("hollow-core-fiber"); got != 0 {
		t.Errorf("Delta(unknown) = %v, want 0", got)
	}
}
