package coachvm

import (
	"fmt"
	"slices"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/timeseries"
)

// Pool tracks one server's guaranteed and multiplexed oversubscribed
// demand across CoachVMs. It is the server-manager bookkeeping of §3.3
// ("The server manager stores the VA-demand in each time window for each
// VM. It recomputes the multiplexed demand when it (de)allocates VMs and
// adjusts the oversubscribed portion accordingly.").
//
// Feasibility is the (windows + 1)-dimensional check of §3.3: per
// resource, the summed per-window scheduling demand must fit the capacity
// in every window, and — for non-fungible resources only — the summed
// static guaranteed portions must fit as well.
type Pool struct {
	windows  timeseries.Windows
	capacity resources.Vector

	// Sums are in resources.Units, so they are exact whatever the order
	// of Add and Remove. limit is capacity; guaranteed sums members'
	// guaranteed portions (formula 3); demandSum sums their scheduling
	// demand, flat and kind-major like CVM.demand (guaranteed + VA for
	// non-fungible kinds; predicted per-window utilization for fungible
	// kinds); backed[k] caches its maximum over windows.
	limit      resources.Units
	guaranteed resources.Units
	demandSum  []int64
	backed     resources.Units

	members map[int]*CVM
}

// NewPool creates an empty pool for a server of the given capacity.
func NewPool(capacity resources.Vector, w timeseries.Windows) *Pool {
	return &Pool{
		windows:   w,
		capacity:  capacity,
		limit:     capacity.Units(),
		demandSum: make([]int64, int(resources.NumKinds)*w.PerDay),
		members:   make(map[int]*CVM),
	}
}

// Capacity returns the server capacity the pool manages.
func (p *Pool) Capacity() resources.Vector { return p.capacity }

// Len returns the number of member VMs.
func (p *Pool) Len() int { return len(p.members) }

// Members returns the member VMs keyed by ID (shared map: do not mutate).
func (p *Pool) Members() map[int]*CVM { return p.members }

// Guaranteed returns the summed guaranteed portions (formula 3).
func (p *Pool) Guaranteed() resources.Vector { return p.guaranteed.Vector() }

// DemandAt returns the summed scheduling demand of resource k in window t.
func (p *Pool) DemandAt(k resources.Kind, t int) float64 {
	return float64(p.demandSum[int(k)*p.windows.PerDay+t]) / resources.PerUnit
}

// MultiplexSavings returns, per resource, the amount saved by multiplexing
// the VA demands across windows instead of summing their peaks: sum over
// VMs of max_t VA_i,t minus max_t sum over VMs VA_i,t. This is the
// "Multiplex Saved" quantity illustrated in Fig. 16b.
func (p *Pool) MultiplexSavings() resources.Vector {
	naive, multiplexed := p.vaPeaks()
	return naive.Sub(multiplexed).Vector()
}

// vaPeaks returns, per resource, the sum over members of each one's peak
// VA demand and the peak over windows of the members' summed VA demand.
func (p *Pool) vaPeaks() (naive, multiplexed resources.Units) {
	sums := make([]int64, p.windows.PerDay)
	for _, k := range resources.Kinds {
		clear(sums)
		for _, vm := range p.members {
			var m int64
			for t, d := range vm.VADemand[k] {
				u := resources.ToUnit(d)
				sums[t] += u
				m = max(m, u)
			}
			naive[k] += m
		}
		multiplexed[k] = slices.Max(sums)
	}
	return naive, multiplexed
}

// Backed returns, per resource, the peak summed scheduling demand across
// windows: the physical resources the server must actually reserve. For
// memory this equals guaranteed + oversubscribed (formulas 3 + 4).
func (p *Pool) Backed() resources.Vector { return p.backed.Vector() }

// BackedUnits returns Backed in resources.Units, exactly.
func (p *Pool) BackedUnits() resources.Units { return p.backed }

// rescanBacked re-derives the cached backed from the slab.
func (p *Pool) rescanBacked() {
	w := p.windows.PerDay
	for k := range p.backed {
		p.backed[k] = slices.Max(p.demandSum[k*w : (k+1)*w])
	}
}

// Fits reports whether adding vm would keep the pool feasible.
func (p *Pool) Fits(vm *CVM) bool {
	if vm.Pred.Windows != p.windows {
		return false
	}
	w := p.windows.PerDay
	for _, k := range resources.Kinds {
		limit := p.limit[k]
		if resources.KindFungibility(k) == resources.NonFungible && p.guaranteed[k]+vm.guaranteed[k] > limit {
			return false
		}
		// O(1) accept per kind: every window's sum is at most backed[k]
		// and every window's demand at most peak[k], so the peaks fitting
		// means each per-window test below would pass.
		if p.backed[k]+vm.peak[k] <= limit {
			continue
		}
		lo, hi := int(k)*w, (int(k)+1)*w
		dem := vm.demand[lo:hi]
		for t, s := range p.demandSum[lo:hi] {
			if s+dem[t] > limit {
				return false
			}
		}
	}
	return true
}

// Add inserts vm into the pool. It returns an error when the VM does not
// fit or its ID is already present; the pool is unchanged on error.
func (p *Pool) Add(vm *CVM) error {
	if _, ok := p.members[vm.ID]; ok {
		return fmt.Errorf("coachvm: vm %d already in pool", vm.ID)
	}
	if !p.Fits(vm) {
		return fmt.Errorf("coachvm: vm %d does not fit in pool", vm.ID)
	}
	p.members[vm.ID] = vm
	p.guaranteed = p.guaranteed.Add(vm.guaranteed)
	for i, d := range vm.demand {
		p.demandSum[i] += d
	}
	p.rescanBacked()
	return nil
}

// Remove deletes the VM with the given ID, returning it (nil if absent).
func (p *Pool) Remove(id int) *CVM {
	vm, ok := p.members[id]
	if !ok {
		return nil
	}
	delete(p.members, id)
	p.guaranteed = p.guaranteed.Sub(vm.guaranteed)
	for i, d := range vm.demand {
		p.demandSum[i] -= d
	}
	p.rescanBacked()
	return vm
}
