package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"testing"
)

// paretoSample draws n Pareto(xm=1, alpha=1.5) values from a deterministic
// splitmix-style stream — a heavy right tail spanning several decades, the
// adversarial shape for a quantile sketch.
func paretoSample(n int, seed uint64) []float64 {
	xs := make([]float64, n)
	state := seed
	for i := range xs {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		u := float64(z>>11) / (1 << 53)
		if u == 0 {
			u = 0.5
		}
		xs[i] = math.Pow(u, -1/1.5)
	}
	return xs
}

// checkRankError verifies every sketch quantile is within alpha relative
// error of the exact sample quantile.
func checkRankError(t *testing.T, name string, xs []float64, sk *Sketch) {
	t.Helper()
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	got := sk.Quantiles(qs)
	for i, q := range qs {
		exact := Percentile(xs, q*100)
		est := got[i]
		// The sketch answers the nearest-rank quantile; compare against the
		// tightest enclosing order statistics rather than the interpolated
		// percentile to keep the bound honest at distribution jumps.
		loRank := int(math.Floor(q * float64(len(xs)-1)))
		hiRank := int(math.Ceil(q * float64(len(xs)-1)))
		lo := sorted[loRank] * (1 - sk.alpha)
		hi := sorted[hiRank] * (1 + sk.alpha)
		if est < lo || est > hi {
			t.Errorf("%s q=%v: estimate %v outside [%v, %v] (exact %v)", name, q, est, lo, hi, exact)
		}
	}
}

func TestSketchRankErrorBounds(t *testing.T) {
	// Adversarial distributions from the issue: sorted ascending, constant,
	// and a Pareto tail.
	sortedXs := make([]float64, 10_000)
	for i := range sortedXs {
		sortedXs[i] = float64(i + 1)
	}
	constXs := make([]float64, 5_000)
	for i := range constXs {
		constXs[i] = 37.5
	}
	pareto := paretoSample(50_000, 12345)

	for _, tc := range []struct {
		name string
		xs   []float64
	}{
		{"sorted", sortedXs},
		{"constant", constXs},
		{"pareto", pareto},
	} {
		sk := NewSketch(0)
		for _, x := range tc.xs {
			sk.Add(x)
		}
		checkRankError(t, tc.name, tc.xs, sk)
		if sk.Count() != uint64(len(tc.xs)) {
			t.Errorf("%s: count %d, want %d", tc.name, sk.Count(), len(tc.xs))
		}
		if got, want := sk.Min(), slices.Min(tc.xs); got != want {
			t.Errorf("%s: min %v, want %v", tc.name, got, want)
		}
		if got, want := sk.Max(), slices.Max(tc.xs); got != want {
			t.Errorf("%s: max %v, want %v", tc.name, got, want)
		}
		// Mean is bucket-derived (order-independent), so it carries the same
		// alpha relative error as the quantiles.
		if got, want := sk.Mean(), Mean(tc.xs); math.Abs(got-want) > sk.alpha*math.Abs(want) {
			t.Errorf("%s: mean %v outside alpha of %v", tc.name, got, want)
		}
	}
}

func TestSketchConstantIsExact(t *testing.T) {
	sk := NewSketch(0)
	for i := 0; i < 1000; i++ {
		sk.Add(42)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := sk.Quantile(q); v != 42 {
			t.Fatalf("constant stream q=%v gave %v, want exactly 42 (min/max clamp)", q, v)
		}
	}
}

func TestSketchMergeAssociativity(t *testing.T) {
	// Split one stream into 8 shard sketches; any grouping of merges must
	// produce byte-identical JSON — the property that makes sharded
	// simulation statistics independent of shard count.
	xs := paretoSample(40_000, 99)
	const shards = 8
	parts := make([]*Sketch, shards)
	for i := range parts {
		parts[i] = NewSketch(0)
	}
	for i, x := range xs {
		parts[i%shards].Add(x)
	}

	// Grouping 1: left fold in order.
	leftFold := NewSketch(0)
	for _, p := range parts {
		leftFold.Merge(p)
	}
	// Grouping 2: balanced binary tree.
	tree := make([]*Sketch, shards)
	for i, p := range parts {
		c := NewSketch(0)
		c.Merge(p)
		tree[i] = c
	}
	for len(tree) > 1 {
		var next []*Sketch
		for i := 0; i < len(tree); i += 2 {
			tree[i].Merge(tree[i+1])
			next = append(next, tree[i])
		}
		tree = next
	}
	// Grouping 3: reverse order fold.
	revFold := NewSketch(0)
	for i := shards - 1; i >= 0; i-- {
		revFold.Merge(parts[i])
	}
	// Reference: the unsharded stream.
	whole := NewSketch(0)
	for _, x := range xs {
		whole.Add(x)
	}

	ref, err := json.Marshal(whole)
	if err != nil {
		t.Fatal(err)
	}
	for name, sk := range map[string]*Sketch{"leftFold": leftFold, "tree": tree[0], "revFold": revFold} {
		got, err := json.Marshal(sk)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("%s merge grouping not byte-identical to unsharded sketch:\n got %s\nwant %s", name, got, ref)
		}
	}
	checkRankError(t, "merged", xs, leftFold)
}

func TestSketchDeterministicEncoding(t *testing.T) {
	// Same seed, two independent builds: identical bytes, every time. Bucket
	// maps must not leak iteration order.
	build := func() []byte {
		sk := NewSketch(0)
		for _, x := range paretoSample(10_000, 7) {
			sk.Add(x)
		}
		b, err := json.Marshal(sk)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := build()
	for i := 0; i < 5; i++ {
		if b := build(); !bytes.Equal(a, b) {
			t.Fatalf("same-seed sketch encoding differs between builds:\n%s\n%s", a, b)
		}
	}
}

func TestSketchJSONRoundTrip(t *testing.T) {
	sk := NewSketch(0.02)
	for _, x := range paretoSample(5_000, 3) {
		sk.Add(x)
	}
	sk.Add(0) // exercise the zero bucket
	data, err := json.Marshal(sk)
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != sk.Count() || back.alpha != sk.alpha {
		t.Fatalf("round trip lost count/alpha: %d/%v vs %d/%v", back.Count(), back.alpha, sk.Count(), sk.alpha)
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if a, b := sk.Quantile(q), back.Quantile(q); a != b {
			t.Fatalf("q=%v differs after round trip: %v vs %v", q, a, b)
		}
	}
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("re-encoding differs:\n%s\n%s", data, data2)
	}
}

func TestSketchEmptyAndZero(t *testing.T) {
	sk := NewSketch(0)
	if !math.IsNaN(sk.Quantile(0.5)) || !math.IsNaN(sk.Mean()) || !math.IsNaN(sk.Min()) || !math.IsNaN(sk.Max()) {
		t.Fatal("empty sketch should answer NaN")
	}
	sk.Add(0)
	sk.Add(-3)
	// Non-positive values share the zero bucket (representative 0); the
	// relative-error guarantee covers positive streams only.
	if sk.Quantile(0.5) != 0 {
		t.Fatalf("zero-bucket median %v, want 0", sk.Quantile(0.5))
	}
	if sk.Min() != -3 || sk.Max() != 0 {
		t.Fatalf("extremes %v/%v, want -3/0", sk.Min(), sk.Max())
	}
	if sk.Count() != 2 {
		t.Fatalf("count %d, want 2", sk.Count())
	}
}

func TestSketchBucketCapCollapses(t *testing.T) {
	sk := NewSketch(0.0005) // tiny alpha: ~28k buckets over 6 decades
	state := uint64(11)
	for i := 0; i < 200_000; i++ {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z ^= z >> 27
		u := float64(z>>11) / (1 << 53)
		sk.Add(math.Pow(10, 6*u)) // log-uniform over [1, 1e6]
	}
	if got := len(sk.counts); got > sk.maxBuckets {
		t.Fatalf("bucket count %d exceeds cap %d", got, sk.maxBuckets)
	}
	if sk.Count() != 200_000 {
		t.Fatalf("collapse lost mass: count %d", sk.Count())
	}
	// Upper quantiles keep their bound even after collapsing low buckets.
	if q99 := sk.Quantile(0.99); q99 < 1e5 {
		t.Fatalf("p99 %v implausibly low after collapse", q99)
	}
}

func TestSketchMergeAlphaMismatchPanics(t *testing.T) {
	a, b := NewSketch(0.01), NewSketch(0.02)
	b.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched alphas did not panic")
		}
	}()
	a.Merge(b)
}

func TestMomentsMatchesExactAndMerges(t *testing.T) {
	xs := paretoSample(30_000, 21)
	m := NewMoments()
	for _, x := range xs {
		m.Add(x)
	}
	wantMean := Mean(xs)
	if math.Abs(m.Mean()-wantMean) > 1e-9*math.Abs(wantMean) {
		t.Fatalf("mean %v, want %v", m.Mean(), wantMean)
	}
	if m.MinV != slices.Min(xs) || m.MaxV != slices.Max(xs) {
		t.Fatalf("extremes %v/%v, want %v/%v", m.MinV, m.MaxV, slices.Min(xs), slices.Max(xs))
	}
	var ss float64
	for _, x := range xs {
		d := x - wantMean
		ss += d * d
	}
	wantVar := ss / float64(len(xs))
	if v := m.m2 / float64(m.N); math.Abs(v-wantVar) > 1e-6*wantVar {
		t.Fatalf("variance %v, want %v", v, wantVar)
	}

	// JSON round trip preserves the running terms.
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Moments
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	back.Add(5)
	m.Add(5)
	if back.Mean() != m.Mean() || back.m2 != m.m2 {
		t.Fatal("moments diverged after JSON round trip")
	}
}

func TestMomentsEmpty(t *testing.T) {
	m := NewMoments()
	if !math.IsNaN(m.Mean()) {
		t.Fatal("empty moments should answer NaN")
	}
}
