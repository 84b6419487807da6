package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("mean of 1,2,3 != 2")
	}
	if Mean(nil) != 0 {
		t.Error("mean of empty != 0")
	}
}

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40},
		{10, 14}, // interpolated: rank 0.4 between 10 and 20
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("percentile of empty != 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileSortedMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		xs := make([]float64, 1+rng.Intn(30))
		for j := range xs {
			xs[j] = rng.Float64() * 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		p := rng.Float64() * 100
		if !almost(Percentile(xs, p), PercentileSorted(sorted, p)) {
			t.Fatalf("mismatch at p=%v", p)
		}
	}
}

func TestMaxMin(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Max(xs) != 7 || Min(xs) != -1 {
		t.Error("max/min wrong")
	}
	if Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty max/min != 0")
	}
}

func TestRange(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := Range(xs, 5, 95); !almost(got, 90) {
		t.Errorf("P95-P5 of 0..100 = %v, want 90", got)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if !almost(Pearson(x, y), 1) {
		t.Error("perfect positive correlation != 1")
	}
	neg := []float64{8, 6, 4, 2}
	if !almost(Pearson(x, neg), -1) {
		t.Error("perfect negative correlation != -1")
	}
	if Pearson(x, []float64{5, 5, 5, 5}) != 0 {
		t.Error("zero-variance side must give 0")
	}
	if Pearson(x, []float64{1, 2}) != 0 {
		t.Error("length mismatch must give 0")
	}
}

func TestViolinOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	v := NewViolin(xs)
	if !(v.Min <= v.P25 && v.P25 <= v.Median && v.Median <= v.P75 && v.P75 <= v.Max) {
		t.Errorf("violin ordering violated: %+v", v)
	}
	if v.N != 200 {
		t.Errorf("N = %d", v.N)
	}
	if NewViolin(nil).N != 0 {
		t.Error("empty violin N != 0")
	}
}

// Property: violin quantile ordering holds for arbitrary input.
func TestViolinOrderingProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) {
				return true // NaN ordering undefined; skip
			}
		}
		v := NewViolin(xs)
		if len(xs) == 0 {
			return v == Violin{}
		}
		return v.Min <= v.P25 && v.P25 <= v.Median && v.Median <= v.P75 && v.P75 <= v.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	pts := CDF(xs, []float64{0, 2, 5, 10})
	wants := []float64{0, 0.4, 1, 1}
	for i, p := range pts {
		if !almost(p.Fraction, wants[i]) {
			t.Errorf("CDF at %v = %v, want %v", p.Value, p.Fraction, wants[i])
		}
	}
}

// Property: CDF fractions are monotone non-decreasing for sorted thresholds.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(xs []float64, ts []float64) bool {
		for _, x := range append(append([]float64{}, xs...), ts...) {
			if math.IsNaN(x) {
				return true
			}
		}
		sort.Float64s(ts)
		pts := CDF(xs, ts)
		for i := 1; i < len(pts); i++ {
			if pts[i].Fraction < pts[i-1].Fraction {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBucketUpPaperExample(t *testing.T) {
	// Paper: "rounded to 5% buckets (e.g., 17.3 -> 20.0%)".
	if got := BucketUp(17.3, 5); got != 20 {
		t.Errorf("BucketUp(17.3, 5) = %v, want 20", got)
	}
	if got := BucketUp(20, 5); got != 20 {
		t.Errorf("BucketUp(20, 5) = %v, want 20 (already on bucket)", got)
	}
	if got := BucketUp(0.17, 0.05); math.Abs(got-0.20) > 1e-12 {
		t.Errorf("BucketUp(0.17, 0.05) = %v, want 0.20", got)
	}
	if got := BucketUp(3, 0); got != 3 {
		t.Errorf("zero step must return input, got %v", got)
	}
}

// Property: BucketUp(x) >= x, is a multiple of step and is idempotent.
func TestBucketUpProperty(t *testing.T) {
	f := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 1) // [0, 1)
		b := BucketUp(x, 0.05)
		if b < x-1e-9 {
			return false
		}
		steps := b / 0.05
		if math.Abs(steps-math.Round(steps)) > 1e-6 {
			return false
		}
		return math.Abs(BucketUp(b, 0.05)-b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEWMAConstantInput(t *testing.T) {
	e := NewEWMA(0.5)
	if e.primed {
		t.Error("new EWMA must not be primed")
	}
	for i := 0; i < 10; i++ {
		e.Observe(0.7)
	}
	if !almost(e.Predict(), 0.7) {
		t.Errorf("EWMA of constant 0.7 = %v", e.Predict())
	}
}

func TestEWMAFirstObservation(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(0.3)
	if e.Predict() != 0.3 {
		t.Errorf("first observation must set the value, got %v", e.Predict())
	}
}

func TestEWMAAlphaOneTracksInput(t *testing.T) {
	e := NewEWMA(1)
	e.Observe(0.1)
	e.Observe(0.9)
	if e.Predict() != 0.9 {
		t.Errorf("alpha=1 must track last input, got %v", e.Predict())
	}
}

func TestEWMAInvalidAlphaDefaults(t *testing.T) {
	e := NewEWMA(-3)
	e.Observe(1)
	e.Observe(0)
	if !almost(e.Predict(), 0.5) {
		t.Errorf("invalid alpha should default to 0.5: got %v", e.Predict())
	}
}

func TestEWMAConvergesToNewLevel(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(0)
	for i := 0; i < 30; i++ {
		e.Observe(1)
	}
	if e.Predict() < 0.999 {
		t.Errorf("EWMA failed to converge: %v", e.Predict())
	}
}
