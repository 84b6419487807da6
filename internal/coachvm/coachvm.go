// Package coachvm implements the CoachVM abstraction: the paper's new
// general-purpose VM type whose every resource is split into a guaranteed
// portion (always allocated: PA-backed memory, dedicated cores) and an
// oversubscribed portion (allocated on demand from a shared pool:
// VA-backed memory, shared cores). See paper §3.2 and §3.3.
//
// The allocation formulas (§3.3) implemented here are:
//
//	(1) PA_demand(VMi)      = max over windows t of PX_t
//	(2) VA_demand(VMi, t)   = max(0, Pmax_t - PA_demand(VMi))
//	(3) Guaranteed memory   = sum over VMs of PA_demand
//	(4) Oversubscribed mem  = max over t of sum over VMs of VA_demand(VMi,t)
//
// All demands are conservatively rounded up to 5% buckets of the VM's
// allocation and to the resource management granularity (1GB for memory,
// 1 core for CPU) before use, per §3.3 "Coach configuration".
package coachvm

import (
	"fmt"
	"math"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/stats"
	"github.com/coach-oss/coach/internal/timeseries"
)

// Prediction holds the per-time-window utilization predictions for one VM:
// the window maximum (total working set) and a percentile PX (the
// guaranteed portion target), both as fractions of the VM's allocation.
type Prediction struct {
	Windows timeseries.Windows
	// Max[k][t] is the predicted maximum utilization of resource k in
	// window t, as a fraction in [0,1].
	Max [resources.NumKinds][]float64
	// Pct[k][t] is the predicted PX (e.g., P95) utilization.
	Pct [resources.NumKinds][]float64
	// Percentile records which percentile Pct holds (e.g., 95).
	Percentile float64
}

// Validate checks the prediction's shape and value invariants.
func (p *Prediction) Validate() error {
	if err := p.Windows.Validate(); err != nil {
		return err
	}
	for _, k := range resources.Kinds {
		if len(p.Max[k]) != p.Windows.PerDay || len(p.Pct[k]) != p.Windows.PerDay {
			return fmt.Errorf("coachvm: prediction for %v has %d/%d windows, want %d",
				k, len(p.Max[k]), len(p.Pct[k]), p.Windows.PerDay)
		}
		for t := 0; t < p.Windows.PerDay; t++ {
			if p.Max[k][t] < 0 || p.Max[k][t] > 1 || p.Pct[k][t] < 0 || p.Pct[k][t] > 1 {
				return fmt.Errorf("coachvm: prediction for %v window %d outside [0,1]", k, t)
			}
		}
	}
	return nil
}

// Clamp forces Pct <= Max per window (a percentile can never exceed the
// maximum; predictions from independent models may disagree slightly).
func (p *Prediction) Clamp() {
	for _, k := range resources.Kinds {
		for t := range p.Pct[k] {
			if p.Pct[k][t] > p.Max[k][t] {
				p.Pct[k][t] = p.Max[k][t]
			}
		}
	}
}

// Granularity is the resource management granularity per kind (§3.3:
// allocations round up to 1GB for memory; we use 1 core, 0.1 Gbps and 1GB
// SSD for the remaining kinds).
var Granularity = resources.Vector{
	resources.CPU:     1,
	resources.Memory:  1,
	resources.Network: 0.1,
	resources.SSD:     1,
}

// FractionBucket is the conservative 5% rounding applied to predicted
// fractions before conversion to absolute units.
const FractionBucket = 0.05

// roundUp rounds an absolute amount up to the granularity of kind k,
// clamped to at most alloc.
func roundUp(amount, alloc float64, k resources.Kind) float64 {
	g := Granularity[k]
	if g > 0 {
		amount = math.Ceil(amount/g-1e-9) * g
	}
	if amount > alloc {
		amount = alloc
	}
	if amount < 0 {
		amount = 0
	}
	return amount
}

// PADemandFrac implements formula (1) on fractions: the maximum of the
// bucketed PX predictions across windows.
func (p *Prediction) PADemandFrac(k resources.Kind) float64 {
	var m float64
	for _, v := range p.Pct[k] {
		b := stats.BucketUp(v, FractionBucket)
		if b > m {
			m = b
		}
	}
	if m > 1 {
		m = 1
	}
	return m
}

// CVM is a placed CoachVM: an allocation plus its resolved guaranteed and
// oversubscribed portions in absolute units. It is immutable once built:
// New and FullyGuaranteed are the only constructors and nothing writes a
// field afterwards, which is what lets demand and peak cache the rest and
// every Pool holding the VM rely on them.
type CVM struct {
	ID    int
	Alloc resources.Vector
	Pred  Prediction

	// Guaranteed is the always-allocated portion per resource (formula 1,
	// rounded up to granularity). For memory this is the PA-backed size.
	Guaranteed resources.Vector
	// VADemand[k][t] is the absolute oversubscribed demand of resource k
	// in window t (formula 2, rounded up to granularity).
	VADemand [resources.NumKinds][]float64

	// guaranteed is Guaranteed in resources.Units; demand is SchedDemand
	// resolved once in units, flat and kind-major (demand[k*PerDay+t]);
	// peak[k] is its maximum over windows.
	guaranteed resources.Units
	demand     []int64
	peak       resources.Units
}

// New resolves a prediction into a CoachVM's guaranteed/oversubscribed
// split. The caller must pass a validated prediction.
func New(id int, alloc resources.Vector, pred Prediction) (*CVM, error) {
	if err := pred.Validate(); err != nil {
		return nil, err
	}
	pred.Clamp()
	vm := &CVM{ID: id, Alloc: alloc, Pred: pred}
	for _, k := range resources.Kinds {
		pa := pred.PADemandFrac(k) * alloc[k]
		vm.Guaranteed[k] = roundUp(pa, alloc[k], k)
		vm.VADemand[k] = make([]float64, pred.Windows.PerDay)
		for t := 0; t < pred.Windows.PerDay; t++ {
			// Recompute VA against the rounded guaranteed portion so
			// guaranteed + VA never exceeds the bucketed window max by
			// more than the rounding slack, and never exceeds Alloc.
			mx := roundUp(stats.BucketUp(pred.Max[k][t], FractionBucket)*alloc[k], alloc[k], k)
			if d := mx - vm.Guaranteed[k]; d > 0 {
				vm.VADemand[k][t] = d
			}
		}
	}
	vm.resolveDemand()
	return vm, nil
}

// FullyGuaranteed builds a CVM whose entire allocation is guaranteed —
// the legacy general-purpose VM (Gpvm in §4.2), used by the None policy.
func FullyGuaranteed(id int, alloc resources.Vector, w timeseries.Windows) *CVM {
	vm := &CVM{ID: id, Alloc: alloc}
	vm.Pred.Windows = w
	vm.Guaranteed = alloc
	for _, k := range resources.Kinds {
		vm.Pred.Max[k] = ones(w.PerDay)
		vm.Pred.Pct[k] = ones(w.PerDay)
		vm.VADemand[k] = make([]float64, w.PerDay)
	}
	vm.resolveDemand()
	return vm
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// SchedDemand returns the VM's scheduling demand for resource k in window
// t — the quantity the time-window bin-packing sums per server (§3.3):
//
//   - For non-fungible resources (memory space, SSD space) the static
//     guaranteed portion must be physically present at all times, so the
//     demand is Guaranteed + VADemand_t.
//   - For fungible resources (CPU, network bandwidth) the hypervisor
//     reassigns capacity on demand, so the scheduler packs the predicted
//     per-window utilization directly (the paper's {2, 6, 4} cores
//     example) — this is where complementary temporal patterns pay off.
func (vm *CVM) SchedDemand(k resources.Kind, t int) float64 {
	return float64(vm.demand[int(k)*vm.Pred.Windows.PerDay+t]) / resources.PerUnit
}

// resolveDemand fills guaranteed, demand and peak; constructors end with it.
func (vm *CVM) resolveDemand() {
	w := vm.Pred.Windows.PerDay
	vm.guaranteed = vm.Guaranteed.Units()
	vm.demand = make([]int64, int(resources.NumKinds)*w)
	for _, k := range resources.Kinds {
		for t := 0; t < w; t++ {
			d := vm.Guaranteed[k] + vm.VADemand[k][t]
			if resources.KindFungibility(k) == resources.Fungible {
				d = roundUp(stats.BucketUp(vm.Pred.Max[k][t], FractionBucket)*vm.Alloc[k], vm.Alloc[k], k)
			}
			u := resources.ToUnit(d)
			vm.demand[int(k)*w+t] = u
			vm.peak[k] = max(vm.peak[k], u)
		}
	}
}

// MaxDemand returns the VM's maximum scheduling demand for resource k
// across windows — the amount a lifetime-max allocator would reserve.
func (vm *CVM) MaxDemand(k resources.Kind) float64 {
	return float64(max(vm.peak[k], vm.guaranteed[k])) / resources.PerUnit
}

// OversubSavings returns Alloc - MaxDemand per resource: what a CoachVM
// saves relative to a fully guaranteed VM before any multiplexing.
func (vm *CVM) OversubSavings() resources.Vector {
	var out resources.Vector
	for _, k := range resources.Kinds {
		out[k] = vm.Alloc[k] - vm.MaxDemand(k)
		if out[k] < 0 {
			out[k] = 0
		}
	}
	return out
}
