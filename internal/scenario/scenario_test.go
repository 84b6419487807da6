package scenario

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/coach-oss/coach/internal/timeseries"
)

// validSpec is a minimal spec passing Validate, used as the mutation
// base for the error table.
func validSpec() *Spec {
	return &Spec{
		Name: "base", Seed: 5, Days: 7, VMs: 100,
		Subscriptions: 12, Clusters: 4, StartWeekday: time.Monday,
		Seasonality: Seasonality{DiurnalAmp: 0.3, PeakHour: 14, WeekendFactor: 0.8},
		Classes: []Class{
			{Name: "a", Fraction: 0.6, Arrival: Arrival{Process: Poisson},
				Lifetime: Dist{Kind: DistLognormal, Mean: 40, Sigma: 1}, WorkingSet: Dist{Kind: DistUniform, Min: 0.3, Max: 0.6}},
			{Name: "b", Fraction: 0.4, Arrival: Arrival{Process: Gamma, CV: 2},
				Lifetime: Dist{Kind: DistExponential, Mean: 8}, WorkingSet: Fixed(0.5)},
		},
		Surges: []Surge{{Kind: "spike", Classes: []string{"a"},
			Day: 4, DurationHours: 6, RateMult: 3, UtilMult: 1.2, Cluster: -1}},
	}
}

func TestValidSpecValidates(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSpecValidateErrors exercises every error branch of Spec.Validate.
func TestSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"days-zero", func(sp *Spec) { sp.Days = 0 }, "Days"},
		{"vms-zero", func(sp *Spec) { sp.VMs = 0 }, "VMs"},
		{"clusters-zero", func(sp *Spec) { sp.Clusters = 0 }, "Clusters"},
		{"too-few-subscriptions", func(sp *Spec) { sp.Subscriptions = 1 }, "subscriptions"},
		{"weekday-negative", func(sp *Spec) { sp.StartWeekday = -1 }, "StartWeekday"},
		{"weekday-above-saturday", func(sp *Spec) { sp.StartWeekday = 7 }, "StartWeekday"},
		{"no-classes", func(sp *Spec) { sp.Classes = nil; sp.Subscriptions = 0 }, "no classes"},
		{"diurnal-amp-negative", func(sp *Spec) { sp.Seasonality.DiurnalAmp = -0.1 }, "diurnal-amp"},
		{"diurnal-amp-one", func(sp *Spec) { sp.Seasonality.DiurnalAmp = 1 }, "diurnal-amp"},
		{"peak-hour-negative", func(sp *Spec) { sp.Seasonality.PeakHour = -1 }, "peak-hour"},
		{"peak-hour-24", func(sp *Spec) { sp.Seasonality.PeakHour = 24 }, "peak-hour"},
		{"weekend-negative", func(sp *Spec) { sp.Seasonality.WeekendFactor = -0.5 }, "weekend-factor"},
		{"class-unnamed", func(sp *Spec) { sp.Classes[0].Name = "" }, "no name"},
		{"class-duplicate", func(sp *Spec) { sp.Classes[1].Name = "a" }, "duplicate"},
		{"fraction-zero", func(sp *Spec) { sp.Classes[0].Fraction = 0 }, "fraction"},
		{"fraction-above-one", func(sp *Spec) { sp.Classes[0].Fraction = 1.1 }, "fraction"},
		{"size-unknown", func(sp *Spec) { sp.Classes[0].Size = "tiny" }, "size"},
		{"class-cluster-negative", func(sp *Spec) { sp.Classes[0].Clusters = []int{-1} }, "cluster"},
		{"class-cluster-too-big", func(sp *Spec) { sp.Classes[0].Clusters = []int{4} }, "cluster"},
		{"arrival-bad", func(sp *Spec) { sp.Classes[0].Arrival = Arrival{Process: Gamma, CV: -1} }, "arrival"},
		{"lifetime-bad", func(sp *Spec) { sp.Classes[0].Lifetime = Dist{Kind: DistExponential, Mean: -1} }, "lifetime"},
		{"lifetime-zero-mean", func(sp *Spec) { sp.Classes[0].Lifetime = Fixed(0) }, "lifetime mean"},
		{"working-set-bad", func(sp *Spec) { sp.Classes[0].WorkingSet = Dist{Kind: DistUniform, Min: 0.5, Max: 0.2} }, "working-set"},
		{"working-set-above-one", func(sp *Spec) { sp.Classes[0].WorkingSet = Fixed(1.5) }, "working-set mean"},
		{"fractions-dont-sum", func(sp *Spec) { sp.Classes[0].Fraction = 0.3 }, "sum"},
		{"surge-no-kind", func(sp *Spec) { sp.Surges[0].Kind = "" }, "no kind"},
		{"surge-day-negative", func(sp *Spec) { sp.Surges[0].Day = -1 }, "day"},
		{"surge-day-past-horizon", func(sp *Spec) { sp.Surges[0].Day = 7 }, "day"},
		{"surge-duration-zero", func(sp *Spec) { sp.Surges[0].DurationHours = 0 }, "duration"},
		{"surge-rate-negative", func(sp *Spec) { sp.Surges[0].RateMult = -1 }, "negative multiplier"},
		{"surge-util-negative", func(sp *Spec) { sp.Surges[0].UtilMult = -1 }, "negative multiplier"},
		{"surge-cluster-below-minus-one", func(sp *Spec) { sp.Surges[0].Cluster = -2 }, "cluster"},
		{"surge-cluster-too-big", func(sp *Spec) { sp.Surges[0].Cluster = 4 }, "cluster"},
		{"surge-unknown-class", func(sp *Spec) { sp.Surges[0].Classes = []string{"ghost"} }, "unknown class"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := validSpec()
			tc.mutate(sp)
			err := sp.Validate()
			if err == nil {
				t.Fatal("Validate accepted the mutated spec")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestHorizonAndWeekday(t *testing.T) {
	sp := validSpec()
	if got := sp.Horizon(); got != 7*timeseries.SamplesPerDay {
		t.Errorf("Horizon = %d", got)
	}
	wants := []time.Weekday{time.Monday, time.Tuesday, time.Wednesday, time.Thursday,
		time.Friday, time.Saturday, time.Sunday}
	for d, want := range wants {
		if got := sp.WeekdayAt(d * timeseries.SamplesPerDay); got != want {
			t.Errorf("day %d = %v, want %v", d, got, want)
		}
	}
	// Weeks wrap.
	sp.Days = 14
	if got := sp.WeekdayAt(7 * timeseries.SamplesPerDay); got != time.Monday {
		t.Errorf("day 7 = %v, want Monday", got)
	}
}

func TestSeasonalityAt(t *testing.T) {
	s := Seasonality{DiurnalAmp: 0.4, PeakHour: 14, WeekendFactor: 0.5}
	if got := s.At(14, time.Wednesday); math.Abs(got-1.4) > 1e-12 {
		t.Errorf("peak = %v, want 1.4", got)
	}
	if got := s.At(2, time.Wednesday); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("trough = %v, want 0.6", got)
	}
	if got := s.At(14, time.Saturday); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("weekend peak = %v, want 0.7", got)
	}
	// The zero value is flat: multiplier 1 everywhere.
	flat := Seasonality{}
	for _, h := range []float64{0, 6.5, 23} {
		if got := flat.At(h, time.Sunday); math.Abs(got-1) > 1e-12 {
			t.Errorf("flat At(%v) = %v", h, got)
		}
	}
}

func TestSurgeActiveAndAffects(t *testing.T) {
	sg := Surge{Kind: "x", Day: 2, DurationHours: 6, Cluster: -1}
	start := 2 * timeseries.SamplesPerDay
	end := start + 6*timeseries.SamplesPerHour
	if sg.Active(start - 1) {
		t.Error("active before window")
	}
	if !sg.Active(start) || !sg.Active(end-1) {
		t.Error("inactive inside window")
	}
	if sg.Active(end) {
		t.Error("active at window end")
	}
	if !sg.Affects("anything") {
		t.Error("empty Classes must affect all")
	}
	sg.Classes = []string{"a"}
	if !sg.Affects("a") || sg.Affects("b") {
		t.Error("Affects ignores the class list")
	}
}

func TestRateUtilAndHomeCluster(t *testing.T) {
	sp := validSpec()
	sp.Seasonality = Seasonality{WeekendFactor: 1} // flat
	sp.Surges = []Surge{{Kind: "spike", Classes: []string{"a"},
		Day: 4, DurationHours: 6, RateMult: 3, UtilMult: 1.2, Cluster: 2}}
	in := 4*timeseries.SamplesPerDay + 1
	out := 2 * timeseries.SamplesPerDay
	if got := sp.RateAt(0, in); math.Abs(got-3) > 1e-12 {
		t.Errorf("surged rate = %v, want 3", got)
	}
	if got := sp.RateAt(0, out); math.Abs(got-1) > 1e-12 {
		t.Errorf("quiet rate = %v, want 1", got)
	}
	if got := sp.RateAt(1, in); math.Abs(got-1) > 1e-12 {
		t.Errorf("unaffected class rate = %v, want 1", got)
	}
	if got := sp.UtilMultAt(0, in); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("surged util mult = %v, want 1.2", got)
	}
	if got := sp.UtilMultAt(0, out); got != 1 {
		t.Errorf("quiet util mult = %v, want 1", got)
	}
	if got := sp.UtilMultAt(1, in); got != 1 {
		t.Errorf("unaffected util mult = %v, want 1", got)
	}
	if got := sp.HomeClusterAt(0, in, 9); got != 2 {
		t.Errorf("surged home = %d, want 2", got)
	}
	if got := sp.HomeClusterAt(0, out, 9); got != 9 {
		t.Errorf("quiet home = %d, want 9", got)
	}
	if got := sp.HomeClusterAt(1, in, 9); got != 9 {
		t.Errorf("unaffected home = %d, want 9", got)
	}
}

// TestSubscriptionBounds pins the partition invariants: bounds cover
// [0,Subscriptions), every class owns at least one subscription, and
// generous budgets split proportionally to Fraction.
func TestSubscriptionBounds(t *testing.T) {
	sp := validSpec()
	lo0, hi0 := sp.SubscriptionRange(0)
	lo1, hi1 := sp.SubscriptionRange(1)
	if lo0 != 0 || hi0 != lo1 || hi1 != sp.Subscriptions {
		t.Errorf("ranges [%d,%d) [%d,%d) don't tile [0,%d)", lo0, hi0, lo1, hi1, sp.Subscriptions)
	}
	// 0.6 of 12 subscriptions.
	if hi0 != 7 {
		t.Errorf("class 0 owns %d subscriptions, want 7", hi0)
	}
	for sub := 0; sub < sp.Subscriptions; sub++ {
		ci := sp.ClassOfSubscription(sub)
		lo, hi := sp.SubscriptionRange(ci)
		if sub < lo || sub >= hi {
			t.Errorf("sub %d mapped to class %d owning [%d,%d)", sub, ci, lo, hi)
		}
	}
	if sp.ClassOfSubscription(-1) != -1 || sp.ClassOfSubscription(sp.Subscriptions) != -1 {
		t.Error("out-of-range subscription must map to -1")
	}

	// Tight budget: one subscription per class even with skewed fractions.
	tight := &Spec{Subscriptions: 3, Classes: []Class{
		{Fraction: 0.98}, {Fraction: 0.01}, {Fraction: 0.01},
	}}
	prev := 0
	for ci := range tight.Classes {
		lo, hi := tight.SubscriptionRange(ci)
		if lo != prev || hi <= lo {
			t.Errorf("class %d range [%d,%d) not contiguous with at least one sub", ci, lo, hi)
		}
		prev = hi
	}
	if prev != 3 {
		t.Errorf("bounds end at %d, want 3", prev)
	}
}

func TestScaled(t *testing.T) {
	sp := validSpec()
	got := sp.Scaled(500, 50)
	if got.VMs != 500 || got.Subscriptions != 50 {
		t.Errorf("Scaled = %d VMs / %d subs", got.VMs, got.Subscriptions)
	}
	if sp.VMs != 100 || sp.Subscriptions != 12 {
		t.Error("Scaled mutated the receiver")
	}
	if got.Name != sp.Name || len(got.Classes) != len(sp.Classes) {
		t.Error("Scaled dropped spec content")
	}
	// Subscriptions clamp to one per class.
	if clamped := sp.Scaled(10, 0); clamped.Subscriptions != len(sp.Classes) {
		t.Errorf("clamped subscriptions = %d, want %d", clamped.Subscriptions, len(sp.Classes))
	}
	if err := sp.Scaled(300, 30).Validate(); err != nil {
		t.Errorf("scaled spec invalid: %v", err)
	}
}
