package cost

import (
	"math"
	"testing"
)

func TestTable1MatchesPaper(t *testing.T) {
	want := map[string]float64{
		"static":         215,
		"firefly":        370,
		"projector-low":  320,
		"projector-high": 420,
	}
	for _, pc := range Table1() {
		if w, ok := want[pc.Technology]; !ok || math.Abs(pc.Dollars-w) > 1e-9 {
			t.Errorf("%s = $%v, want $%v", pc.Technology, pc.Dollars, w)
		}
	}
	if StaticPortDollars() != 215 {
		t.Fatalf("static port = %v, want 215", StaticPortDollars())
	}
}

func TestDeltaAtLeast1Point5(t *testing.T) {
	// "Based on component costs ... the lowest estimates imply δ = 1.5."
	for _, tech := range []string{"firefly", "projector-low", "projector-high"} {
		if d := Delta(tech); d < 1.48 {
			t.Errorf("delta(%s) = %v, want >= ~1.5", tech, d)
		}
	}
	if Delta("static") != 1 {
		t.Fatalf("delta(static) should be exactly 1")
	}
	if Delta("nonexistent") != 0 {
		t.Fatalf("unknown technology should return 0")
	}
}
