package coachvm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/stats"
	"github.com/coach-oss/coach/internal/timeseries"
)

var w6 = timeseries.Windows{PerDay: 6}

// mkPred builds a valid prediction with the given per-window memory max
// and pct fractions; other resources get flat 0.5/0.4.
func mkPred(t *testing.T, maxMem, pctMem []float64) Prediction {
	t.Helper()
	w := timeseries.Windows{PerDay: len(maxMem)}
	p := Prediction{Windows: w, Percentile: 95}
	for _, k := range resources.Kinds {
		p.Max[k] = make([]float64, w.PerDay)
		p.Pct[k] = make([]float64, w.PerDay)
		for i := 0; i < w.PerDay; i++ {
			p.Max[k][i], p.Pct[k][i] = 0.5, 0.4
		}
	}
	copy(p.Max[resources.Memory], maxMem)
	copy(p.Pct[resources.Memory], pctMem)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPredictionValidate(t *testing.T) {
	p := mkPred(t, []float64{0.5, 0.5, 0.5}, []float64{0.4, 0.4, 0.4})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Max[resources.CPU] = []float64{0.5} // wrong length
	if err := bad.Validate(); err == nil {
		t.Error("wrong-length prediction must fail")
	}
	bad2 := mkPred(t, []float64{0.5, 0.5, 0.5}, []float64{0.4, 0.4, 0.4})
	bad2.Max[resources.CPU][0] = 1.5
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range prediction must fail")
	}
}

func TestClampForcesPctBelowMax(t *testing.T) {
	p := mkPred(t, []float64{0.5, 0.5, 0.5}, []float64{0.4, 0.4, 0.4})
	p.Pct[resources.Memory][0] = 0.9 // above max 0.5
	p.Clamp()
	if p.Pct[resources.Memory][0] != 0.5 {
		t.Errorf("Clamp left pct %v above max", p.Pct[resources.Memory][0])
	}
}

func TestPADemandFracFormula1(t *testing.T) {
	// Formula (1): PA = max over windows of bucketed PX.
	p := mkPred(t, []float64{0.9, 0.9, 0.9}, []float64{0.31, 0.52, 0.18})
	// Buckets: 0.35, 0.55, 0.20 -> max 0.55.
	if got := p.PADemandFrac(resources.Memory); math.Abs(got-0.55) > 1e-9 {
		t.Errorf("PADemandFrac = %v, want 0.55", got)
	}
}

// TestVADemandFracFormula2 checks formula (2) as New computes it: the VA
// demand in window t is max(0, roundUp(BucketUp(Pmax_t)·alloc) − G), G
// being the guaranteed portion after its own rounding up to 1 GB.
func TestVADemandFracFormula2(t *testing.T) {
	alloc := resources.NewVector(4, 32, 2, 128)
	p := mkPred(t, []float64{0.87, 0.25, 0.61}, []float64{0.52, 0.52, 0.52})
	vm, err := New(1, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	// G = roundUp(0.55·32 = 17.6) = 18 GB. Window 0: roundUp(0.90·32 =
	// 28.8) − 18 = 11; on fractions (0.90 − 0.55)·32 = 11.2 would round
	// up to 12, and against the unrounded 17.6 it would be 11.4.
	// Window 1: 0.25·32 = 8 < 18, so 0. Window 2: roundUp(20.8) − 18 = 3.
	if g := vm.Guaranteed[resources.Memory]; g != 18 {
		t.Fatalf("guaranteed memory = %v, want 18", g)
	}
	for i, want := range []float64{11, 0, 3} {
		mx := roundUp(stats.BucketUp(p.Max[resources.Memory][i], FractionBucket)*32, 32, resources.Memory)
		formula := math.Max(0, mx-vm.Guaranteed[resources.Memory])
		if got := vm.VADemand[resources.Memory][i]; got != want || got != formula {
			t.Errorf("VADemand[memory][%d] = %v, want %v (formula: %v)", i, got, want, formula)
		}
	}
}

func TestNewRoundsToGranularity(t *testing.T) {
	alloc := resources.NewVector(4, 32, 2, 128)
	p := mkPred(t, []float64{0.8, 0.8, 0.8}, []float64{0.52, 0.52, 0.52})
	vm, err := New(1, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	// Memory PA: bucket(0.52)=0.55 -> 17.6GB -> rounded up to 18GB.
	if got := vm.Guaranteed[resources.Memory]; got != 18 {
		t.Errorf("guaranteed memory = %v, want 18", got)
	}
	// Guaranteed never exceeds allocation.
	if !vm.Guaranteed.FitsIn(alloc) {
		t.Errorf("guaranteed %v exceeds alloc %v", vm.Guaranteed, alloc)
	}
}

func TestNewPaperWorkedExample(t *testing.T) {
	// The Fig. 16a structure: PA-demand 16GB (max of per-window P95) with
	// window maxes 28, 8, 22 -> VA demands 12, 0, 6. A 40GB VM keeps all
	// fractions aligned to the 5% buckets and 1GB granularity.
	alloc := resources.NewVector(8, 40, 4, 256)
	p := mkPred(t,
		[]float64{0.70, 0.20, 0.55}, // window maxes: 28, 8, 22 GB
		[]float64{0.40, 0.20, 0.40}, // P95: max 0.40 -> 16GB
	)
	vm, err := New(1, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Guaranteed[resources.Memory] != 16 {
		t.Fatalf("PA = %v, want 16", vm.Guaranteed[resources.Memory])
	}
	wantVA := []float64{12, 0, 6}
	for i, want := range wantVA {
		if got := vm.VADemand[resources.Memory][i]; math.Abs(got-want) > 1e-9 {
			t.Errorf("VA[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestFullyGuaranteed(t *testing.T) {
	alloc := resources.NewVector(4, 16, 2, 128)
	vm := FullyGuaranteed(7, alloc, w6)
	if vm.Guaranteed != alloc {
		t.Errorf("guaranteed %v != alloc %v", vm.Guaranteed, alloc)
	}
	for _, k := range resources.Kinds {
		for tt := 0; tt < w6.PerDay; tt++ {
			if vm.VADemand[k][tt] != 0 {
				t.Errorf("fully guaranteed VM has VA demand %v", vm.VADemand[k][tt])
			}
		}
	}
	if !vm.OversubSavings().IsZero() {
		t.Errorf("fully guaranteed VM has savings %v", vm.OversubSavings())
	}
}

func TestSchedDemandFungibleVsNonFungible(t *testing.T) {
	alloc := resources.NewVector(8, 32, 4, 256)
	p := mkPred(t, []float64{0.8, 0.3, 0.6}, []float64{0.5, 0.25, 0.5})
	// CPU per-window maxes differ: {0.25, 0.75, 0.5}.
	p.Max[resources.CPU] = []float64{0.25, 0.75, 0.5}
	p.Pct[resources.CPU] = []float64{0.2, 0.6, 0.4}
	vm, err := New(1, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	// Fungible CPU: demand follows the window maxes (2, 6, 4 cores).
	want := []float64{2, 6, 4}
	for i := range want {
		if got := vm.SchedDemand(resources.CPU, i); got != want[i] {
			t.Errorf("CPU sched demand[%d] = %v, want %v", i, got, want[i])
		}
	}
	// Non-fungible memory: demand = static guaranteed + per-window VA.
	for i := 0; i < 3; i++ {
		want := vm.Guaranteed[resources.Memory] + vm.VADemand[resources.Memory][i]
		if got := vm.SchedDemand(resources.Memory, i); got != want {
			t.Errorf("memory sched demand[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestMaxDemandAndSavings(t *testing.T) {
	alloc := resources.NewVector(8, 32, 4, 256)
	p := mkPred(t, []float64{0.8, 0.3, 0.6}, []float64{0.5, 0.25, 0.5})
	vm, err := New(1, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	// Memory max demand: 16 + 10 (window 0: 0.8*32=25.6 -> 26 - 16) = 26.
	if got := vm.MaxDemand(resources.Memory); got != 26 {
		t.Errorf("MaxDemand memory = %v, want 26", got)
	}
	s := vm.OversubSavings()
	if s[resources.Memory] != 32-26 {
		t.Errorf("memory savings = %v, want 6", s[resources.Memory])
	}
}

func TestNewRejectsInvalidPrediction(t *testing.T) {
	p := Prediction{Windows: timeseries.Windows{PerDay: 5}} // 5 doesn't divide 288... actually it does not matter; arrays empty
	if _, err := New(1, resources.NewVector(1, 4, 1, 32), p); err == nil {
		t.Error("invalid prediction must be rejected")
	}
}

// Property: guaranteed + VA never exceeds allocation by more than the
// rounding granularity, and all quantities are non-negative.
func TestCVMBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		alloc := resources.NewVector(
			float64(1+rng.Intn(40)),
			float64(4*(1+rng.Intn(128))),
			1+rng.Float64()*19,
			float64(32*(1+rng.Intn(64))),
		)
		p := Prediction{Windows: w6, Percentile: 95}
		for _, k := range resources.Kinds {
			p.Max[k] = make([]float64, w6.PerDay)
			p.Pct[k] = make([]float64, w6.PerDay)
			for i := 0; i < w6.PerDay; i++ {
				p.Max[k][i] = rng.Float64()
				p.Pct[k][i] = p.Max[k][i] * rng.Float64()
			}
		}
		vm, err := New(trial, alloc, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range resources.Kinds {
			if vm.Guaranteed[k] < 0 || vm.Guaranteed[k] > alloc[k] {
				t.Fatalf("guaranteed %v outside [0, %v]", vm.Guaranteed[k], alloc[k])
			}
			for tt := 0; tt < w6.PerDay; tt++ {
				if vm.VADemand[k][tt] < 0 {
					t.Fatalf("negative VA demand")
				}
				if total := vm.Guaranteed[k] + vm.VADemand[k][tt]; total > alloc[k]+Granularity[k]+1e-9 {
					t.Fatalf("total demand %v exceeds alloc %v + granularity", total, alloc[k])
				}
			}
		}
	}
}
