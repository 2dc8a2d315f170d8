// Package cost implements the per-port cost model of Table 1 in the paper
// and the equal-cost network sizing rules of §4: a flexible (dynamic) port
// costs δ ≥ 1.5× a static port, so an equal-cost dynamic network can buy at
// most 1/δ ≈ 0.67× the ports of a static network.
package cost

// Component prices in dollars, from ProjecToR (Ghobadi et al., SIGCOMM'16)
// as reproduced in Table 1 of the paper.
const (
	SRTransceiver  = 80.0
	OpticalPerM    = 0.3
	CableLengthM   = 300.0
	ToRPort        = 90.0
	GalvoMirror    = 200.0
	ProjecToRTxLow = 80.0
	ProjecToRTxHi  = 180.0
	DMD            = 100.0
	MirrorLens     = 50.0
)

// PortCost is the cost of one network port under a given technology.
type PortCost struct {
	Technology string
	Dollars    float64
}

// Table1 returns the per-port costs of Table 1: each static cable's cost is
// shared over its two ports.
func Table1() []PortCost {
	staticCable := OpticalPerM * CableLengthM / 2 // $45 per port
	return []PortCost{
		{Technology: "static", Dollars: SRTransceiver + staticCable + ToRPort},              // $215
		{Technology: "firefly", Dollars: SRTransceiver + ToRPort + GalvoMirror},             // $370
		{Technology: "projector-low", Dollars: ToRPort + ProjecToRTxLow + DMD + MirrorLens}, // $320
		{Technology: "projector-high", Dollars: ToRPort + ProjecToRTxHi + DMD + MirrorLens}, // $420
	}
}

// StaticPortDollars is the static per-port cost ($215).
func StaticPortDollars() float64 { return Table1()[0].Dollars }

// Delta returns δ, the cost of a flexible port normalized to a static port,
// for a given dynamic technology from Table1. The paper's headline number is
// the FireFly/ProjecToR low end, δ ≈ 1.5.
func Delta(technology string) float64 {
	static := StaticPortDollars()
	for _, pc := range Table1() {
		if pc.Technology == technology {
			return pc.Dollars / static
		}
	}
	return 0
}
