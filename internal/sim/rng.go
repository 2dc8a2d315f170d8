package sim

import "math"

// RNG is a small deterministic pseudo-random generator (splitmix64) whose
// entire state is one exported word, so simulator checkpoints can serialize
// it and restore bit-identical random streams — the property math/rand
// cannot offer (its internal state is unexported and unmarshalable).
//
// The generator passes the statistical bar a network simulator needs
// (path sampling, Poisson arrivals, Valiant intermediates); it is not a
// cryptographic source. It implements the subset of math/rand's method set
// the simulators and workload generators use, so it satisfies
// workload.Rand alongside *rand.Rand.
type RNG struct {
	// State is the full generator state. Serialize it as-is; restoring it
	// resumes the stream exactly where it left off.
	State uint64 `json:"state"`
}

// NewRNG returns a generator seeded from seed. Distinct seeds — including
// adjacent integers — produce decorrelated streams because every output is
// a full splitmix64 finalization of the counter.
func NewRNG(seed int64) *RNG {
	return &RNG{State: uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.State += 0x9e3779b97f4a7c15
	x := r.State
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Intn returns a uniform integer in [0, n); it panics when n <= 0. The
// modulo bias is below 2^-32 for every n the simulators use (switch,
// server and path-choice counts), far under any simulated effect.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float with mean 1, via
// inverse-transform sampling (one uniform draw per variate, so the stream
// position is a pure function of the draw count — checkpoint-friendly).
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(1 - r.Float64())
}

// Shuffle pseudo-randomizes the order of n elements, like math/rand.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Perm returns a pseudo-random permutation of [0,n), like math/rand.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
