package fluid

import (
	"math/rand"
	"testing"

	"beyondft/internal/tm"
	"beyondft/internal/topology"
)

// The paper leaves Conjectures 2.3/2.4 open: that permutation TMs are
// worst-case among hose-model TMs, and hence that throughput cannot rise
// more than proportionally for ANY hose TM family. These tests gather the
// kind of experimental evidence §7.1 calls for on small instances.

// randomHoseTM samples a random TM satisfying the hose constraint: each
// rack's total out- and in-demand ≤ its server count.
func randomHoseTM(racks []int, serversPerRack int, rng *rand.Rand) *tm.TM {
	m := &tm.TM{Name: "random-hose"}
	outLeft := map[int]float64{}
	inLeft := map[int]float64{}
	for _, r := range racks {
		outLeft[r] = float64(serversPerRack)
		inLeft[r] = float64(serversPerRack)
	}
	// Random sequential filling.
	for attempts := 0; attempts < 4*len(racks); attempts++ {
		a := racks[rng.Intn(len(racks))]
		b := racks[rng.Intn(len(racks))]
		if a == b || outLeft[a] < 1e-3 || inLeft[b] < 1e-3 {
			continue
		}
		maxAmt := outLeft[a]
		if inLeft[b] < maxAmt {
			maxAmt = inLeft[b]
		}
		amt := rng.Float64() * maxAmt
		if amt < 1e-3 {
			continue
		}
		m.Demands = append(m.Demands, tm.Demand{Src: a, Dst: b, Amount: amt})
		outLeft[a] -= amt
		inLeft[b] -= amt
	}
	return m
}

// TestConjecture24Evidence: on small expanders, the worst sampled
// permutation TM achieves throughput no higher than the worst sampled
// arbitrary hose TM — i.e., permutations are at least as hard.
func TestConjecture24Evidence(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	topo := topology.NewJellyfish(8, 3, 2, rng)
	racks := topo.ToRs()

	worstPerm := 2.0
	for i := 0; i < 10; i++ {
		m := tm.RandomPermutation(racks, func(int) int { return 2 }, rng)
		v, err := ThroughputExact(topo.G, m)
		if err != nil {
			t.Fatal(err)
		}
		if v < worstPerm {
			worstPerm = v
		}
	}
	worstHose := 2.0
	for i := 0; i < 25; i++ {
		m := randomHoseTM(racks, 2, rng)
		if len(m.Demands) == 0 {
			continue
		}
		if err := m.ValidateHose(func(int) int { return 2 }); err != nil {
			t.Fatalf("generator produced invalid hose TM: %v", err)
		}
		v, err := ThroughputExact(topo.G, m)
		if err != nil {
			t.Fatal(err)
		}
		if v < worstHose {
			worstHose = v
		}
	}
	// Conjecture 2.4 predicts worstPerm <= worstHose (+ small numerical
	// slack); a violation here would be a counterexample worth reporting.
	if worstPerm > worstHose+0.02 {
		t.Fatalf("conjecture 2.4 violated on this instance: worst permutation %.4f > worst hose %.4f",
			worstPerm, worstHose)
	}
}

// TestLemma22Construction follows the proof of Lemma 2.2 numerically: if a
// graph supports throughput t for sampled permutations over an x-fraction,
// the full permutation throughput is at least ~x·t (up to sampling noise on
// a finite instance; the lemma's bound is asymptotic, so generous slack).
func TestLemma22Construction(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	topo := topology.NewJellyfish(10, 4, 2, rng)
	racks := topo.ToRs()

	// Worst sampled sub-permutation throughput at x = 0.4 (4 of 10 racks).
	subWorst := 2.0
	for i := 0; i < 8; i++ {
		shuffled := append([]int(nil), racks...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		m := tm.RandomPermutation(shuffled[:4], func(int) int { return 2 }, rng)
		v, err := ThroughputExact(topo.G, m)
		if err != nil {
			t.Fatal(err)
		}
		if v < subWorst {
			subWorst = v
		}
	}
	// Full permutations.
	fullWorst := 2.0
	for i := 0; i < 8; i++ {
		m := tm.RandomPermutation(racks, func(int) int { return 2 }, rng)
		v, err := ThroughputExact(topo.G, m)
		if err != nil {
			t.Fatal(err)
		}
		if v < fullWorst {
			fullWorst = v
		}
	}
	// Lemma 2.2 direction: full-size support ≥ x × sub-size support. Use a
	// 0.5 safety factor for finite-size effects.
	if fullWorst < 0.4*subWorst*0.5 {
		t.Fatalf("full permutation throughput %.4f far below the Lemma 2.2 scaling of %.4f",
			fullWorst, 0.4*subWorst)
	}
}
