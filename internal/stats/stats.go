// Package stats provides the summary statistics the paper reports: means,
// percentiles, fixed-bin histograms and streaming FCT sketches.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics; NaN for empty input. It sorts a
// copy of xs; the input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Hist is a fixed-bin histogram of values over a closed range: bin i counts
// values in [Lo + i·w, Lo + (i+1)·w) for width w = (Hi−Lo)/len(Counts),
// with the last bin closed on the right and out-of-range values clamped
// into the edge bins. Fixed bins make the encoding deterministic — the
// whatif smoke test diffs histograms across runs and worker counts — and
// comparable across scenario families that share a range.
type Hist struct {
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Counts []int64 `json:"counts"`
}

// FixedHist bins xs into `bins` equal-width bins over [lo, hi]. It returns
// a zero-count histogram for empty input and panics on a non-positive bin
// count or an empty range, which are programming errors, not data.
func FixedHist(xs []float64, lo, hi float64, bins int) Hist {
	if bins <= 0 || !(hi > lo) {
		panic("stats: FixedHist needs bins > 0 and hi > lo")
	}
	h := Hist{Lo: lo, Hi: hi, Counts: make([]int64, bins)}
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		i := int(math.Floor((x - lo) / w))
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
	}
	return h
}

// Total returns the number of values binned.
func (h Hist) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}
