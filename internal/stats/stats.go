// Package stats provides the statistical primitives the Coach reproduction
// relies on: percentiles, CDFs, violin summaries (paper Fig. 11),
// correlation (Fig. 6) and exponentially weighted moving averages (§3.4).
//
// Everything is implemented from scratch on the standard library so the
// module stays dependency-free and deterministic.
package stats

import (
	"cmp"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between order statistics. It returns 0 for empty input.
// The input slice is not modified.
func Percentile(xs []float64, p float64) float64 {
	buf := make([]float64, len(xs))
	copy(buf, xs)
	return PercentileInPlace(buf, p)
}

// PercentileInPlace is Percentile for a slice the caller lets it reorder.
// It finds the two order statistics PercentileSorted interpolates by
// selection instead of a full sort and returns the same bits: an order
// statistic's value does not depend on how it was found, except among NaNs
// (no rank) and between -0 and +0 (equal, different bits) — inputs holding
// either are sorted instead, as are the trivial cases.
func PercentileInPlace(xs []float64, p float64) float64 {
	selectable := len(xs) > 0 && p > 0 && p < 100
	for _, x := range xs {
		selectable = selectable && x == x && !(x == 0 && math.Signbit(x))
	}
	if !selectable {
		sort.Float64s(xs)
		return PercentileSorted(xs, p)
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	SelectKth(xs, lo)
	if float64(lo) == rank {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + Min(xs[lo+1:])*frac
}

// SelectKth reorders xs so that xs[k] is its k-th smallest element with
// nothing larger before it and nothing smaller after it. xs must hold no
// NaN.
//
// It is a quickselect over two branch-free Lomuto passes: every element
// is swapped and the boundary advances by the comparison's 0/1 result
// (SETcc, not a branch a near-random window would mispredict half the
// time). The first pass moves x < pivot to the front; the second gathers
// x == pivot after it and stops once k lands in that run, which keeps a
// window of one repeated value linear instead of quadratic. The pivot is
// the median of three fixed-seed pseudo-random positions: fixed positions
// let Lomuto's rotations of a falling window put all three near the
// bottom, which is quadratic too.
func SelectKth[T cmp.Ordered](xs []T, k int) {
	rng := uint64(0x9e3779b97f4a7c15)
	for lo, hi := 0, len(xs); hi-lo > 1; {
		var at [3]int
		for i := range at {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			at[i] = lo + int(rng%uint64(hi-lo))
		}
		a, b, c := xs[at[0]], xs[at[1]], xs[at[2]]
		pivot := max(min(a, b), min(max(a, b), c)) // median of three
		lt := lo
		for j := lo; j < hi; j++ {
			x := xs[j]
			xs[j] = xs[lt]
			xs[lt] = x
			lt += b2i(x < pivot)
		}
		if k < lt {
			hi = lt
			continue
		}
		eq := lt
		for j := lt; j < hi; j++ {
			x := xs[j]
			xs[j] = xs[eq]
			xs[eq] = x
			eq += b2i(x == pivot)
		}
		if k < eq {
			return
		}
		lo = eq
	}
}

// b2i is 1 for true and 0 for false; the compiler lowers it to SETcc.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// PercentileSorted is Percentile for an already ascending-sorted slice.
// Use it to avoid repeated sorting when extracting several percentiles.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Range returns the spread between the hi-th and lo-th percentiles of xs
// (e.g., P95-P5), the paper's "utilization range" metric (§2.3, Fig. 6).
func Range(xs []float64, lo, hi float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, hi) - PercentileSorted(sorted, lo)
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when the lengths differ, are < 2, or either side has zero
// variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var num, dx2, dy2 float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		num += dx * dy
		dx2 += dx * dx
		dy2 += dy * dy
	}
	if dx2 == 0 || dy2 == 0 {
		return 0
	}
	return num / math.Sqrt(dx2*dy2)
}

// Violin is the five-plus-one number summary the paper uses to draw the
// savings violins in Fig. 11: min, P25, median, P75, max and mean.
type Violin struct {
	Min, P25, Median, P75, Max, Mean float64
	N                                int
}

// NewViolin summarizes xs. The zero Violin describes an empty sample.
func NewViolin(xs []float64) Violin {
	if len(xs) == 0 {
		return Violin{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Violin{
		Min:    sorted[0],
		P25:    PercentileSorted(sorted, 25),
		Median: PercentileSorted(sorted, 50),
		P75:    PercentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(sorted),
		N:      len(sorted),
	}
}

// CDFPoint is one point of an empirical CDF: Fraction of samples <= Value.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the empirical CDF of xs evaluated at the given thresholds.
// Thresholds must be in ascending order; each output point reports the
// fraction of samples less than or equal to the threshold.
func CDF(xs []float64, thresholds []float64) []CDFPoint {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]CDFPoint, len(thresholds))
	for i, t := range thresholds {
		// count of samples <= t
		n := sort.SearchFloat64s(sorted, math.Nextafter(t, math.Inf(1)))
		frac := 0.0
		if len(sorted) > 0 {
			frac = float64(n) / float64(len(sorted))
		}
		out[i] = CDFPoint{Value: t, Fraction: frac}
	}
	return out
}

// BucketUp rounds x up to the next multiple of step (e.g., 17.3 -> 20 with
// step 5), the paper's conservative 5%-bucket rounding (§2.3, §3.3).
// Non-positive steps return x unchanged.
func BucketUp(x, step float64) float64 {
	if step <= 0 {
		return x
	}
	b := math.Ceil(x/step-1e-9) * step
	if b < 0 {
		return 0
	}
	return b
}
