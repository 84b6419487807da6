package scenario

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/coach-oss/coach/internal/timeseries"
)

// flatSpec is a single-class spec with seasonality switched off, so
// arrival statistics depend on the process alone.
func flatSpec(arrival Arrival, vms, days int) *Spec {
	return &Spec{
		Name: "flat", Seed: 1, Days: days, VMs: vms,
		Subscriptions: 10, Clusters: 4, StartWeekday: time.Monday,
		Seasonality: Seasonality{WeekendFactor: 1},
		Classes: []Class{{
			Name: "only", Fraction: 1, Arrival: arrival,
			Lifetime: Dist{Kind: DistExponential, Mean: 10}, WorkingSet: Dist{Kind: DistUniform, Min: 0.2, Max: 0.5},
		}},
	}
}

// sampleStats returns the mean and coefficient of variation of draws.
func sampleStats(xs []float64) (mean, cv float64) {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/float64(len(xs))) / mean
}

// TestArrivalDrawMoments pins each process's unit mean and theoretical
// CV at a fixed seed — the statistical contract behind the "unchanged
// average rate, different burstiness" preset descriptions.
func TestArrivalDrawMoments(t *testing.T) {
	cases := []struct {
		name string
		a    Arrival
	}{
		{"poisson", Arrival{Process: Poisson}},
		{"gamma-cv0.5", Arrival{Process: Gamma, CV: 0.5}},
		{"gamma-cv2.5", Arrival{Process: Gamma, CV: 2.5}},
		{"gamma-cv3", Arrival{Process: Gamma, CV: 3}},
		{"weibull-shape0.55", Arrival{Process: WeibullArrivals, Shape: 0.55}},
		{"weibull-shape0.7", Arrival{Process: WeibullArrivals, Shape: 0.7}},
		{"weibull-shape2", Arrival{Process: WeibullArrivals, Shape: 2}},
	}
	const n = 200000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = tc.a.Draw(rng)
				if xs[i] < 0 || math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
					t.Fatalf("draw %d = %v", i, xs[i])
				}
			}
			mean, cv := sampleStats(xs)
			if math.Abs(mean-1) > 0.03 {
				t.Errorf("mean = %.4f, want 1 +- 0.03", mean)
			}
			want := theoreticalCV(tc.a)
			if math.Abs(cv-want)/want > 0.05 {
				t.Errorf("cv = %.3f, want %.3f +- 5%%", cv, want)
			}
		})
	}
}

// TestClassArrivalsCalibration: the realized arrival count must land
// near VMs*Fraction for every process — BaseRate calibrates the renewal
// process against seasonality.
func TestClassArrivalsCalibration(t *testing.T) {
	for _, a := range []Arrival{{Process: Poisson}, {Process: Gamma, CV: 3}, {Process: WeibullArrivals, Shape: 0.55}} {
		sp := flatSpec(a, 5000, 14)
		got := len(sp.ClassArrivals(0))
		if math.Abs(float64(got)-5000)/5000 > 0.10 {
			t.Errorf("%s: %d arrivals, want 5000 +- 10%%", a.Process, got)
		}
	}
	// Calibration holds under seasonality too.
	sp := flatSpec(Arrival{Process: Poisson}, 5000, 14)
	sp.Seasonality = Seasonality{DiurnalAmp: 0.6, PeakHour: 12, WeekendFactor: 0.5}
	got := len(sp.ClassArrivals(0))
	if math.Abs(float64(got)-5000)/5000 > 0.10 {
		t.Errorf("seasonal: %d arrivals, want 5000 +- 10%%", got)
	}
}

func TestClassArrivalsDeterministicAndSorted(t *testing.T) {
	sp := flatSpec(Arrival{Process: Gamma, CV: 2}, 2000, 7)
	a := sp.ClassArrivals(0)
	b := sp.ClassArrivals(0)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %d vs %d", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		if a[i] < 0 || a[i] >= sp.Horizon() {
			t.Fatalf("arrival %d = %d outside horizon", i, a[i])
		}
	}
}

// TestDiurnalPeakToTrough: with amplitude a, the arrival count at the
// peak hour over the trough hour must approach (1+a)/(1-a).
func TestDiurnalPeakToTrough(t *testing.T) {
	const amp = 0.6
	sp := flatSpec(Arrival{Process: Poisson}, 40000, 28)
	sp.Seasonality = Seasonality{DiurnalAmp: amp, PeakHour: 12, WeekendFactor: 1}
	byHour := make([]int, 24)
	for _, s := range sp.ClassArrivals(0) {
		byHour[(s%timeseries.SamplesPerDay)/timeseries.SamplesPerHour]++
	}
	peak, trough := float64(byHour[12]), float64(byHour[0])
	want := (1 + amp) / (1 - amp)
	got := peak / trough
	if got < want*0.8 || got > want*1.2 {
		t.Errorf("peak/trough = %.2f, want %.2f +- 20%%", got, want)
	}
}

// TestWeekendFactor: per-day weekend arrival rate over weekday rate
// must approach WeekendFactor.
func TestWeekendFactor(t *testing.T) {
	const wf = 0.5
	sp := flatSpec(Arrival{Process: Poisson}, 40000, 28)
	sp.Seasonality = Seasonality{WeekendFactor: wf}
	var weekend, weekday, weekendDays, weekdayDays float64
	perDay := make([]int, sp.Days)
	for _, s := range sp.ClassArrivals(0) {
		perDay[s/timeseries.SamplesPerDay]++
	}
	for d, n := range perDay {
		wd := sp.WeekdayAt(d * timeseries.SamplesPerDay)
		if wd == time.Saturday || wd == time.Sunday {
			weekend += float64(n)
			weekendDays++
		} else {
			weekday += float64(n)
			weekdayDays++
		}
	}
	got := (weekend / weekendDays) / (weekday / weekdayDays)
	if got < wf*0.85 || got > wf*1.15 {
		t.Errorf("weekend/weekday rate = %.3f, want %.2f +- 15%%", got, wf)
	}
}

// TestSurgeRateLift: a 4x surge window must receive ~4x the arrivals of
// the same window on a quiet day.
func TestSurgeRateLift(t *testing.T) {
	sp := flatSpec(Arrival{Process: Poisson}, 40000, 14)
	sp.Surges = []Surge{{Kind: "stampede", Day: 10, DurationHours: 6, RateMult: 4, Cluster: -1}}
	inWindow := func(day float64) int {
		lo := int(day * timeseries.SamplesPerDay)
		hi := lo + 6*timeseries.SamplesPerHour
		n := 0
		for _, s := range sp.ClassArrivals(0) {
			if s >= lo && s < hi {
				n++
			}
		}
		return n
	}
	// Day 3 is the same weekday phase (both mid-week, flat seasonality).
	surged, quiet := float64(inWindow(10)), float64(inWindow(3))
	if got := surged / quiet; got < 3 || got > 5 {
		t.Errorf("surge window lift = %.2f, want ~4", got)
	}
}

func TestArrivalValidate(t *testing.T) {
	bad := []Arrival{
		{Process: Process(99)},
		{Process: Gamma, CV: -1},
		{Process: Gamma, CV: 11},
		{Process: Gamma, CV: math.NaN()},
		{Process: WeibullArrivals, Shape: -0.5},
		{Process: WeibullArrivals, Shape: 0.1},
		{Process: WeibullArrivals, Shape: math.Inf(1)},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("arrival %d should be invalid", i)
		}
	}
	good := []Arrival{{Process: Poisson}, {Process: Gamma, CV: 0}, {Process: Gamma, CV: 10}, {Process: WeibullArrivals, Shape: 0.2}, {Process: WeibullArrivals, Shape: 0}}
	for i, a := range good {
		if err := a.Validate(); err != nil {
			t.Errorf("arrival %d: %v", i, err)
		}
	}
}

func TestBaseRateDegenerate(t *testing.T) {
	// A zero seasonality multiplier everywhere must not divide by zero.
	sp := flatSpec(Arrival{Process: Poisson}, 100, 7)
	sp.Seasonality = Seasonality{WeekendFactor: 1}
	sp.Surges = []Surge{{Kind: "kill", Day: 0, DurationHours: 24.0 * 7, RateMult: 0.0000001, Cluster: -1}}
	if r := sp.BaseRate(0); math.IsInf(r, 0) || math.IsNaN(r) {
		t.Errorf("BaseRate = %v", r)
	}
}

// theoreticalCV returns the theoretical coefficient of variation of the
// process's inter-arrival times.
func theoreticalCV(a Arrival) float64 {
	switch a.Process {
	case Gamma:
		if a.CV == 0 {
			return 1
		}
		return a.CV
	case WeibullArrivals:
		k := a.Shape
		if k == 0 {
			k = 1
		}
		m := math.Gamma(1 + 1/k)
		return math.Sqrt(math.Gamma(1+2/k)/(m*m) - 1)
	default:
		return 1
	}
}
