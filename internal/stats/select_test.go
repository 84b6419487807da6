package stats

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// checkSelectKth runs SelectKth(xs, k) on a copy and checks it against a
// sort oracle: the value at k, the partition property around it, and
// that the result is a permutation of the input.
func checkSelectKth(t *testing.T, name string, xs []float64, k int) {
	t.Helper()
	got := append([]float64(nil), xs...)
	SelectKth(got, k)
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	if got[k] != want[k] {
		t.Fatalf("%s n=%d k=%d: xs[k] = %v, sort says %v", name, len(xs), k, got[k], want[k])
	}
	for i, x := range got {
		if (i < k && x > got[k]) || (i > k && x < got[k]) {
			t.Fatalf("%s n=%d k=%d: xs[%d] = %v breaks the partition around %v", name, len(xs), k, i, x, got[k])
		}
	}
	perm := append([]float64(nil), got...)
	sort.Float64s(perm)
	for i := range perm {
		if perm[i] != want[i] {
			t.Fatalf("%s n=%d k=%d: result is not a permutation of the input", name, len(xs), k)
		}
	}
}

// selectShapes are the adversarial inputs for a median-of-three
// quickselect, at length n.
func selectShapes(n int) map[string][]float64 {
	shapes := map[string][]float64{}
	add := func(name string, f func(i int) float64) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		shapes[name] = xs
	}
	add("all-equal", func(int) float64 { return 0.35 })
	add("two-valued", func(i int) float64 { return float64(i % 2) })
	add("two-valued-blocks", func(i int) float64 { return float64(2 * i / n) })
	add("sorted", func(i int) float64 { return float64(i) })
	add("reversed", func(i int) float64 { return float64(n - i) })
	add("organ-pipe", func(i int) float64 { return float64(min(i, n-1-i)) })
	add("sorted-ties", func(i int) float64 { return float64(i / 7) })
	return shapes
}

// TestSelectKthShapes pins selectKth against the sort oracle on
// adversarial shapes, at both ends and on both sides of every tie-run
// boundary the shape has.
func TestSelectKthShapes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 48, 4032} {
		for name, xs := range selectShapes(n) {
			ks := []int{0, n - 1, n / 2, n * 95 / 100}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for i := 1; i < n; i++ {
				if sorted[i] != sorted[i-1] && len(ks) < 64 {
					ks = append(ks, i-1, i) // last of one run, first of the next
				}
			}
			for _, k := range ks {
				checkSelectKth(t, name, xs, k)
			}
		}
	}
}

// TestSelectKthRandom cross-checks selectKth on random inputs holding
// from one to n distinct values, shuffled.
func TestSelectKthRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for iter := 0; iter < 4000; iter++ {
		n := 1 + rng.Intn(300)
		distinct := 1 + rng.Intn(n)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(distinct)) * 0.05
		}
		checkSelectKth(t, "random", xs, rng.Intn(n))
	}
}

// TestSelectKthAllEqualIsLinear pins the equal-run pass: on a window of
// one repeated value selectKth must cost about as much as on distinct
// values. Dropping the pass makes the all-equal case shrink one element
// a round — ~n/4 times slower at n = 4032, far past the bound here.
func TestSelectKthAllEqualIsLinear(t *testing.T) {
	const n = 4032
	rng := rand.New(rand.NewSource(3))
	distinct := make([]float64, n)
	for i := range distinct {
		distinct[i] = rng.Float64()
	}
	equal := selectShapes(n)["all-equal"]
	best := func(src []float64) time.Duration {
		buf := make([]float64, n)
		b := time.Duration(1 << 62)
		for rep := 0; rep < 20; rep++ {
			copy(buf, src)
			start := time.Now()
			SelectKth(buf, n*95/100)
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	if eq, ds := best(equal), best(distinct); eq > 20*ds {
		t.Fatalf("all-equal select took %v, distinct %v: more than 20x, the equal-run pass is not doing its job", eq, ds)
	}
}
