package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// DefaultSketchAlpha is the relative accuracy of simulator FCT sketches:
// every quantile estimate q̂ satisfies |q̂ − q| ≤ α·q against the true
// sample quantile q.
const DefaultSketchAlpha = 0.01

// Sketch is a mergeable streaming quantile sketch over non-negative values
// with a guaranteed relative error bound — the structure that lets the
// simulators report FCT percentiles over 10M flows without retaining a
// single one (DESIGN.md §13).
//
// It is a logarithmically-bucketed histogram in the DDSketch family rather
// than a t-digest: values map to buckets at powers of γ = (1+α)/(1−α), so a
// bucket's midpoint is within α relative error of everything it holds. The
// deciding property over t-digest is that merging is exact integer addition
// of bucket counts — associative and commutative — so a sketch assembled
// from any sharding of a value stream is byte-identical to the unsharded
// one. That is what lets sharded simulator runs and checkpoint-resumed runs
// promise bit-identical statistics at any shard count.
//
// Byte-identity requires every derived number to be order-independent too,
// so the sketch holds no floating-point accumulators: Sum and Mean are
// computed from the bucket counts (each bucket contributes count × its
// representative value, summed in ascending bucket order), making them
// deterministic under any merge grouping at the cost of the same ≤ α
// relative error the quantiles carry. Min and Max are tracked exactly —
// min/max is order-independent.
//
// Memory is bounded: at α = 1%, one bucket covers ~0.87% of a decade, so
// the 4096-bucket cap spans ~35 decades before the lowest buckets collapse
// together (conceding accuracy only on the smallest values; tail quantiles
// keep their bound). Simulated FCTs span well under 35 decades, so collapse
// — which is not associativity-safe — never fires in simulator use.
//
// The zero Sketch is not usable; call NewSketch.
type Sketch struct {
	alpha   float64
	gamma   float64
	invLogG float64 // 1 / ln(gamma)

	counts     map[int32]uint64
	zeroCount  uint64 // values <= 0 (and underflow after collapse)
	count      uint64
	min, max   float64
	maxBuckets int
	minKey     int32 // lowest allowed bucket once collapsed
	collapsed  bool
}

// NewSketch returns a sketch with relative accuracy alpha (0 means
// DefaultSketchAlpha). Alpha must be in (0, 1).
func NewSketch(alpha float64) *Sketch {
	if alpha == 0 {
		alpha = DefaultSketchAlpha
	}
	if alpha <= 0 || alpha >= 1 {
		panic("stats: sketch alpha must be in (0,1)")
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:      alpha,
		gamma:      gamma,
		invLogG:    1 / math.Log(gamma),
		counts:     make(map[int32]uint64),
		min:        math.Inf(1),
		max:        math.Inf(-1),
		maxBuckets: 4096,
	}
}

// bucketOf maps a positive value to its bucket index ⌈log_γ x⌉.
func (s *Sketch) bucketOf(x float64) int32 {
	return int32(math.Ceil(math.Log(x) * s.invLogG))
}

// bucketValue is the representative value of bucket i: 2γ^i/(γ+1), the
// geometric midpoint guaranteeing ≤ α relative error for the bucket's span.
func (s *Sketch) bucketValue(i int32) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Add records one value. Values ≤ 0 land in a dedicated zero bucket
// (simulated FCTs are ≥ 1ns; the bucket makes the sketch total-population
// safe anyway).
func (s *Sketch) Add(x float64) { s.AddN(x, 1) }

// AddN records a value n times.
func (s *Sketch) AddN(x float64, n uint64) {
	if n == 0 {
		return
	}
	s.count += n
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if x <= 0 {
		s.zeroCount += n
		return
	}
	k := s.bucketOf(x)
	if s.collapsed && k < s.minKey {
		k = s.minKey
	}
	s.counts[k] += n
	if len(s.counts) > s.maxBuckets {
		s.collapse()
	}
}

// collapse folds the lowest buckets together until the bucket count is an
// eighth under the cap (chunked, so the amortized cost stays O(1) per Add),
// preserving total count and upper-quantile accuracy. Future underflow
// values pin to the new lowest bucket.
func (s *Sketch) collapse() {
	keys := s.sortedBuckets()
	target := s.maxBuckets - s.maxBuckets/8
	for len(keys) > target {
		lo, second := keys[0], keys[1]
		s.counts[second] += s.counts[lo]
		delete(s.counts, lo)
		keys = keys[1:]
	}
	s.minKey = keys[0]
	s.collapsed = true
}

func (s *Sketch) sortedBuckets() []int32 {
	keys := make([]int32, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Count returns the number of values recorded.
func (s *Sketch) Count() uint64 { return s.count }

// Sum returns the sum of recorded values, reconstructed from the bucket
// counts in ascending bucket order: within α relative error of the exact
// sum (for non-negative streams), and — unlike a running float64 total —
// identical under every merge grouping.
func (s *Sketch) Sum() float64 {
	var sum float64
	for _, k := range s.sortedBuckets() {
		sum += float64(s.counts[k]) * s.bucketValue(k)
	}
	return sum
}

// Mean returns Sum/Count (within α relative error, deterministic under
// merging), or NaN when empty.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.Sum() / float64(s.count)
}

// Min and Max return the exact extremes (tracked outside the buckets), or
// NaN when empty.
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the exact maximum recorded value, or NaN when empty.
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return math.NaN()
	}
	return s.max
}

// Quantile returns the q-quantile estimate (q in [0,1]); NaN when empty.
// The estimate is within α relative error of the exact sample quantile,
// and is clamped into [Min, Max] so degenerate distributions stay exact.
func (s *Sketch) Quantile(q float64) float64 {
	return s.Quantiles([]float64{q})[0]
}

// Quantiles returns estimates for an ascending list of quantiles in one
// bucket walk. Non-ascending input panics (a programming error).
func (s *Sketch) Quantiles(qs []float64) []float64 {
	out := make([]float64, len(qs))
	if s.count == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			panic("stats: Quantiles wants ascending quantiles")
		}
	}
	keys := s.sortedBuckets()
	cum := s.zeroCount
	ki := 0
	for i, q := range qs {
		// rank in [1, count]: the smallest value with at least rank values <= it.
		rank := uint64(math.Ceil(q * float64(s.count)))
		if rank < 1 {
			rank = 1
		}
		for cum < rank && ki < len(keys) {
			cum += s.counts[keys[ki]]
			ki++
		}
		var v float64
		if rank <= s.zeroCount || ki == 0 {
			v = 0
		} else {
			v = s.bucketValue(keys[ki-1])
		}
		if v < s.min {
			v = s.min
		}
		if v > s.max {
			v = s.max
		}
		out[i] = v
	}
	return out
}

// Merge folds o into s. Sketches must share the same alpha. Bucket counts
// add exactly, so merge order and grouping never change the result's
// buckets — the property sharded simulations rely on.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	if o.alpha != s.alpha {
		panic(fmt.Sprintf("stats: merging sketches with alpha %g and %g", s.alpha, o.alpha))
	}
	for k, c := range o.counts {
		s.counts[k] += c
	}
	s.zeroCount += o.zeroCount
	s.count += o.count
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	if o.collapsed && (!s.collapsed || o.minKey > s.minKey) {
		s.collapsed = true
		s.minKey = o.minKey
	}
	if s.collapsed {
		// Fold anything below the surviving floor so both operands agree.
		for k, c := range s.counts {
			if k < s.minKey {
				s.counts[s.minKey] += c
				delete(s.counts, k)
			}
		}
	}
	if len(s.counts) > s.maxBuckets {
		s.collapse()
	}
}

// sketchJSON is the wire form: buckets as sorted [index, count] pairs so
// the encoding is deterministic (map iteration order never leaks).
type sketchJSON struct {
	Alpha   float64     `json:"alpha"`
	Count   uint64      `json:"count"`
	Zero    uint64      `json:"zero,omitempty"`
	Min     float64     `json:"min"`
	Max     float64     `json:"max"`
	MinKey  *int32      `json:"min_key,omitempty"` // set once collapsed
	Buckets [][2]uint64 `json:"buckets"`           // [index (as two's-complement uint), count]
}

// MarshalJSON encodes the sketch deterministically (sorted buckets).
func (s *Sketch) MarshalJSON() ([]byte, error) {
	j := sketchJSON{Alpha: s.alpha, Count: s.count, Zero: s.zeroCount}
	if s.count > 0 {
		j.Min, j.Max = s.min, s.max
	}
	if s.collapsed {
		mk := s.minKey
		j.MinKey = &mk
	}
	for _, k := range s.sortedBuckets() {
		j.Buckets = append(j.Buckets, [2]uint64{uint64(uint32(k)), s.counts[k]})
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores a sketch from its wire form.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var j sketchJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	alpha := j.Alpha
	if alpha == 0 {
		alpha = DefaultSketchAlpha
	}
	*s = *NewSketch(alpha)
	s.count = j.Count
	s.zeroCount = j.Zero
	if j.Count > 0 {
		s.min, s.max = j.Min, j.Max
	}
	if j.MinKey != nil {
		s.collapsed = true
		s.minKey = *j.MinKey
	}
	for _, b := range j.Buckets {
		s.counts[int32(uint32(b[0]))] = b[1]
	}
	return nil
}

// Moments is a streaming accumulator of count, sum, mean and extremes
// (Welford's algorithm; its second moment rides along in checkpoints). It is
// the retained-[]float64 replacement for every mean the simulators report.
type Moments struct {
	N    uint64  `json:"n"`
	Sum  float64 `json:"sum"`
	MinV float64 `json:"min"`
	MaxV float64 `json:"max"`
	mean float64
	m2   float64
}

// NewMoments returns an empty accumulator.
func NewMoments() *Moments {
	return &Moments{MinV: math.Inf(1), MaxV: math.Inf(-1)}
}

// Add records one value.
func (m *Moments) Add(x float64) {
	m.N++
	m.Sum += x
	d := x - m.mean
	m.mean += d / float64(m.N)
	m.m2 += d * (x - m.mean)
	if x < m.MinV {
		m.MinV = x
	}
	if x > m.MaxV {
		m.MaxV = x
	}
}

// Mean returns the running mean, or NaN when empty.
func (m *Moments) Mean() float64 {
	if m.N == 0 {
		return math.NaN()
	}
	return m.mean
}

// momentsJSON carries the unexported running terms through JSON.
type momentsJSON struct {
	N    uint64  `json:"n"`
	Sum  float64 `json:"sum"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// MarshalJSON encodes the full accumulator state. An empty accumulator's
// ±Inf extreme sentinels encode as 0 (JSON has no infinities); UnmarshalJSON
// restores them from N == 0.
func (m *Moments) MarshalJSON() ([]byte, error) {
	j := momentsJSON{N: m.N, Sum: m.Sum, Min: m.MinV, Max: m.MaxV, Mean: m.mean, M2: m.m2}
	if m.N == 0 {
		j.Min, j.Max = 0, 0
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores the full accumulator state.
func (m *Moments) UnmarshalJSON(data []byte) error {
	var j momentsJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*m = Moments{N: j.N, Sum: j.Sum, MinV: j.Min, MaxV: j.Max, mean: j.Mean, m2: j.M2}
	if m.N == 0 {
		m.MinV, m.MaxV = math.Inf(1), math.Inf(-1)
	}
	return nil
}
