package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.5, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
}

// The tail a run may report is the highest percentile with at least ten
// samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	for _, n := range []int{20, 1000, 15555} {
		p := supportedTail(n)
		if beyond := float64(n) * (100 - p) / 100; beyond < 10 {
			t.Errorf("supportedTail(%d) = %g leaves %.1f samples beyond it", n, p, beyond)
		}
	}
}

func TestCollectRejectsMissingUndefinedAndNonFinite(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	got, problems := collect(defs, map[string]float64{"a": 1.5, "b": 2})
	if len(problems) != 0 || got["a"] != (metricValue{1.5, "s"}) || got["b"] != (metricValue{2, "ms"}) {
		t.Fatalf("collect = %v, %v", got, problems)
	}
	for name, vals := range map[string]map[string]float64{
		"missing":   {"a": 1},
		"undefined": {"a": 1, "b": 2, "c": 3},
		"nan":       {"a": math.NaN(), "b": 2},
		"inf":       {"a": math.Inf(1), "b": 2},
	} {
		if _, problems := collect(defs, vals); len(problems) != 1 {
			t.Errorf("%s: problems = %v, want exactly one", name, problems)
		}
	}
}
