package scenario

import (
	"math"
	"math/rand"
	"testing"
)

// TestDistSampleMean: every distribution's sample mean must match
// MeanValue at a fixed seed — the property the lifetime and working-set
// calibrations rely on.
func TestDistSampleMean(t *testing.T) {
	cases := []struct {
		name string
		d    Dist
	}{
		{"fixed", Fixed(3.5)},
		{"uniform", Dist{Kind: DistUniform, Min: 0.2, Max: 0.8}},
		{"exponential", Dist{Kind: DistExponential, Mean: 8}},
		{"lognormal", Dist{Kind: DistLognormal, Mean: 40, Sigma: 1.1}},
		{"lognormal-tight", Dist{Kind: DistLognormal, Mean: 140, Sigma: 0.3}},
		{"weibull-heavy", Weibull(10, 0.6)},
		{"weibull-concentrated", Weibull(10, 3)},
	}
	const n = 200000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var sum float64
			for i := 0; i < n; i++ {
				x := tc.d.Sample(rng)
				if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("sample %d = %v", i, x)
				}
				sum += x
			}
			mean := sum / n
			want := tc.d.MeanValue()
			if math.Abs(mean-want)/want > 0.05 {
				t.Errorf("sample mean = %.3f, want %.3f +- 5%%", mean, want)
			}
		})
	}
}

func TestDistValidate(t *testing.T) {
	bad := []Dist{
		{Kind: DistKind(42)},
		Fixed(-1),
		Fixed(math.NaN()),
		{Kind: DistUniform, Min: -0.1, Max: 0.5},
		{Kind: DistUniform, Min: 0.5, Max: 0.1},
		{Kind: DistExponential, Mean: 0},
		{Kind: DistExponential, Mean: -3},
		{Kind: DistLognormal, Mean: 0, Sigma: 1},
		{Kind: DistLognormal, Mean: 10, Sigma: -1},
		{Kind: DistLognormal, Mean: 10, Sigma: math.Inf(1)},
		Weibull(0, 1),
		Weibull(10, 0),
		Weibull(10, -2),
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("dist %d (%v) should be invalid", i, d.Kind)
		}
	}
	good := []Dist{Fixed(0), {Kind: DistUniform, Min: 0, Max: 0}, {Kind: DistUniform, Min: 1, Max: 2}, {Kind: DistExponential, Mean: 3}, {Kind: DistLognormal, Mean: 40, Sigma: 0}, Weibull(10, 0.5)}
	for i, d := range good {
		if err := d.Validate(); err != nil {
			t.Errorf("dist %d: %v", i, err)
		}
	}
}

func TestDistKindStrings(t *testing.T) {
	for k, name := range distNames {
		got, err := ParseDistKind(name)
		if err != nil || got != k {
			t.Errorf("ParseDistKind(%s) = %v, %v", name, got, err)
		}
		if k.String() != name {
			t.Errorf("%v.String() = %s", k, k.String())
		}
	}
	if _, err := ParseDistKind("zipf"); err == nil {
		t.Error("unknown kind must fail")
	}
	if s := DistKind(9).String(); s != "DistKind(9)" {
		t.Errorf("unknown kind string = %s", s)
	}
}

func TestProcessStrings(t *testing.T) {
	for p, name := range processNames {
		got, err := ParseProcess(name)
		if err != nil || got != p {
			t.Errorf("ParseProcess(%s) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseProcess("pareto"); err == nil {
		t.Error("unknown process must fail")
	}
}

// Fixed returns a constant distribution, the form Parse gives
// "fixed value=v".
func Fixed(v float64) Dist { return Dist{Kind: DistFixed, Value: v} }
