package coachvm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/timeseries"
)

func randCVM(t *testing.T, rng *rand.Rand, id int, w timeseries.Windows) *CVM {
	t.Helper()
	alloc := resources.NewVector(
		float64(1+rng.Intn(8)),
		float64(4*(1+rng.Intn(8))),
		0.5+rng.Float64()*3,
		float64(32*(1+rng.Intn(8))),
	)
	p := Prediction{Windows: w, Percentile: 95}
	for _, k := range resources.Kinds {
		p.Max[k] = make([]float64, w.PerDay)
		p.Pct[k] = make([]float64, w.PerDay)
		for i := 0; i < w.PerDay; i++ {
			p.Max[k][i] = rng.Float64()
			p.Pct[k][i] = p.Max[k][i] * rng.Float64()
		}
	}
	vm, err := New(id, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestPoolAddRemoveRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cap := resources.NewVector(1000, 4000, 100, 100000)
	p := NewPool(cap, w6)
	var ids []int
	for i := 0; i < 20; i++ {
		vm := randCVM(t, rng, i, w6)
		if err := p.Add(vm); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, i)
	}
	if p.Len() != 20 {
		t.Fatalf("Len = %d", p.Len())
	}
	for _, id := range ids {
		if p.Remove(id) == nil {
			t.Fatalf("Remove(%d) returned nil", id)
		}
	}
	// After removing everything the pool must be exactly empty.
	if p.Len() != 0 {
		t.Fatalf("Len after removal = %d", p.Len())
	}
	if g := p.Guaranteed(); !g.IsZero() {
		t.Errorf("guaranteed after removal = %v", g)
	}
	if b := p.Backed(); !b.IsZero() {
		t.Errorf("backed after removal = %v", b)
	}
}

func TestPoolRejectsDuplicate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewPool(resources.NewVector(100, 400, 10, 10000), w6)
	vm := randCVM(t, rng, 1, w6)
	if err := p.Add(vm); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(vm); err == nil {
		t.Error("duplicate ID must be rejected")
	}
}

func TestPoolRemoveAbsent(t *testing.T) {
	p := NewPool(resources.NewVector(10, 40, 1, 100), w6)
	if p.Remove(42) != nil {
		t.Error("removing absent VM must return nil")
	}
}

func TestPoolFitsRejectsOverCapacity(t *testing.T) {
	// Tiny server: a fully guaranteed 8-core VM cannot fit twice.
	cap := resources.NewVector(10, 36, 5, 1000)
	p := NewPool(cap, w6)
	big := FullyGuaranteed(1, resources.NewVector(8, 30, 2, 100), w6)
	if !p.Fits(big) {
		t.Fatal("first VM must fit")
	}
	if err := p.Add(big); err != nil {
		t.Fatal(err)
	}
	big2 := FullyGuaranteed(2, resources.NewVector(8, 30, 2, 100), w6)
	if p.Fits(big2) {
		t.Error("second identical VM cannot fit a 10-core server")
	}
	if err := p.Add(big2); err == nil {
		t.Error("Add must fail when Fits is false")
	}
}

func TestPoolWindowMismatch(t *testing.T) {
	p := NewPool(resources.NewVector(100, 400, 10, 10000), w6)
	vm := FullyGuaranteed(1, resources.NewVector(1, 4, 1, 32), timeseries.Windows{PerDay: 3})
	if p.Fits(vm) {
		t.Error("window-config mismatch must not fit")
	}
}

func TestPaperOversubscriptionExample(t *testing.T) {
	// §3.2 example: CVM1 (2c/8GB), CVM2 (4c/16GB), CVM3 (8c/32GB) with
	// guaranteed 1/4GB, 4/4GB, 3/18GB fit into a 10-core/36GB server even
	// though their total allocation is 14 cores and 56GB.
	cap := resources.NewVector(10, 36, 100, 100000)
	p := NewPool(cap, w6)
	mk := func(id int, cores, mem, gCores, gMem float64) *CVM {
		pr := Prediction{Windows: w6, Percentile: 95}
		for _, k := range resources.Kinds {
			pr.Max[k] = make([]float64, w6.PerDay)
			pr.Pct[k] = make([]float64, w6.PerDay)
		}
		for i := 0; i < w6.PerDay; i++ {
			pr.Max[resources.CPU][i] = gCores / cores
			pr.Pct[resources.CPU][i] = gCores / cores
			pr.Max[resources.Memory][i] = gMem / mem
			pr.Pct[resources.Memory][i] = gMem / mem
		}
		vm, err := New(id, resources.NewVector(cores, mem, 1, 32), pr)
		if err != nil {
			t.Fatal(err)
		}
		return vm
	}
	for _, vm := range []*CVM{
		mk(1, 2, 8, 1, 4),
		mk(2, 4, 16, 4, 4),
		mk(3, 8, 32, 3, 18),
	} {
		if err := p.Add(vm); err != nil {
			t.Fatalf("vm %d: %v", vm.ID, err)
		}
	}
	// Total allocation (14 cores, 56GB) exceeds the server; the backed
	// resources must not.
	if b := p.Backed(); !b.FitsIn(cap) {
		t.Errorf("backed %v exceeds capacity %v", b, cap)
	}
}

// Property: formula (4) — the multiplexed oversubscribed pool is never
// larger than the sum of per-VM peak VA demands, and never smaller than
// any single window's VA sum.
func TestMultiplexingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		p := NewPool(resources.NewVector(1e6, 1e6, 1e6, 1e6), w6)
		n := 1 + rng.Intn(10)
		var naive resources.Units
		for i := 0; i < n; i++ {
			vm := randCVM(t, rng, i, w6)
			if err := p.Add(vm); err != nil {
				t.Fatal(err)
			}
			for _, k := range resources.Kinds {
				var m float64
				for _, d := range vm.VADemand[k] {
					if d > m {
						m = d
					}
				}
				naive[k] += resources.ToUnit(m)
			}
		}
		over := oversubscribed(p).Units()
		for _, k := range resources.Kinds {
			if over[k] > naive[k] {
				t.Fatalf("multiplexed pool %v exceeds naive sum %v for %v", over[k], naive[k], k)
			}
		}
		sav := p.MultiplexSavings().Units()
		for _, k := range resources.Kinds {
			if sav[k] != naive[k]-over[k] {
				t.Fatalf("savings accounting off for %v: %v vs %v units", k, sav[k], naive[k]-over[k])
			}
		}
	}
}

// Property: after any sequence of feasible Adds, Backed fits in capacity.
func TestBackedWithinCapacityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		cap := resources.NewVector(32, 128, 10, 2048)
		p := NewPool(cap, w6)
		for i := 0; i < 30; i++ {
			vm := randCVM(t, rng, i, w6)
			if p.Fits(vm) {
				if err := p.Add(vm); err != nil {
					t.Fatal(err)
				}
			}
		}
		if b := p.Backed(); !b.FitsIn(cap.Add(resources.NewVector(1e-6, 1e-6, 1e-6, 1e-6))) {
			t.Fatalf("backed %v exceeds capacity %v", b, cap)
		}
	}
}

func TestDemandAtMatchesMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := NewPool(resources.NewVector(1e6, 1e6, 1e6, 1e6), w6)
	var vms []*CVM
	for i := 0; i < 5; i++ {
		vm := randCVM(t, rng, i, w6)
		vms = append(vms, vm)
		if err := p.Add(vm); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range resources.Kinds {
		for tt := 0; tt < w6.PerDay; tt++ {
			var want float64
			for _, vm := range vms {
				want += vm.SchedDemand(k, tt)
			}
			if got := p.DemandAt(k, tt); math.Abs(got-want) > 1e-9 {
				t.Fatalf("DemandAt(%v,%d) = %v, want %v", k, tt, got, want)
			}
		}
	}
}

// TestPoolChurnExact drives random Add/Remove churn over CVMs whose
// network amounts come in 0.1 Gbps steps, which no float sum cancels
// exactly. Pools holding the same members must report the same bits
// whatever order they arrived and left in, on every call, and a drained
// pool must be exactly empty.
func TestPoolChurnExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vms := make([]*CVM, 200)
	for i := range vms {
		vms[i] = stepCVM(t, rng, i)
	}
	big := resources.NewVector(1e6, 1e6, 1e6, 1e6)
	churned, sorted := NewPool(big, w6), NewPool(big, w6)
	for step := 0; step < 4000; step++ {
		vm := vms[rng.Intn(len(vms))]
		if churned.Remove(vm.ID) == nil {
			if err := churned.Add(vm); err != nil {
				t.Fatal(err)
			}
		}
	}
	if churned.Len() == 0 {
		t.Fatal("fixture regression: churn left no members")
	}
	for _, vm := range vms {
		if churned.Members()[vm.ID] != nil {
			if err := sorted.Add(vm); err != nil {
				t.Fatal(err)
			}
		}
	}
	same := func(what string, a, b resources.Vector) {
		t.Helper()
		for _, k := range resources.Kinds {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				t.Fatalf("%s[%v]: %v vs %v", what, k, a[k], b[k])
			}
		}
	}
	same("Backed", churned.Backed(), sorted.Backed())
	same("Guaranteed", churned.Guaranteed(), sorted.Guaranteed())
	for _, k := range resources.Kinds {
		for w := 0; w < w6.PerDay; w++ {
			if a, b := churned.DemandAt(k, w), sorted.DemandAt(k, w); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("DemandAt(%v,%d): %v vs %v", k, w, a, b)
			}
		}
	}
	// Both sum their members in Go's randomized map order.
	for call := 0; call < 20; call++ {
		same("Oversubscribed", oversubscribed(churned), oversubscribed(sorted))
		same("MultiplexSavings", churned.MultiplexSavings(), sorted.MultiplexSavings())
	}

	for id := range churned.Members() {
		churned.Remove(id)
	}
	var zero resources.Vector
	same("drained Backed", churned.Backed(), zero)
	same("drained Guaranteed", churned.Guaranteed(), zero)
	same("drained Oversubscribed", oversubscribed(churned), zero)
	for _, k := range resources.Kinds {
		for w := 0; w < w6.PerDay; w++ {
			if d := churned.DemandAt(k, w); d != 0 {
				t.Fatalf("drained DemandAt(%v,%d) = %v", k, w, d)
			}
		}
	}
}

// oversubscribed is the pool's multiplexed oversubscribed size per
// resource: the max across windows of the summed VA demands (formula 4).
func oversubscribed(p *Pool) resources.Vector {
	_, multiplexed := p.vaPeaks()
	return multiplexed.Vector()
}
