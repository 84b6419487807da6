package coachvm

import (
	"fmt"
	"slices"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/stats"
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

	// guaranteed is the sum of members' guaranteed portions (formula 3).
	guaranteed resources.Vector
	// demandSum is the sum of members' scheduling demand, flat and
	// kind-major like CVM.demand: demandSum[k*PerDay+t] (guaranteed + VA
	// for non-fungible kinds; predicted per-window utilization for
	// fungible kinds). backed[k] caches its maximum over windows; Add and
	// Remove re-derive it from the slab.
	demandSum []float64
	backed    resources.Vector

	members map[int]*CVM
}

// NewPool creates an empty pool for a server of the given capacity.
func NewPool(capacity resources.Vector, w timeseries.Windows) *Pool {
	return &Pool{
		windows:   w,
		capacity:  capacity,
		demandSum: make([]float64, int(resources.NumKinds)*w.PerDay),
		members:   make(map[int]*CVM),
	}
}

// Capacity returns the server capacity the pool manages.
func (p *Pool) Capacity() resources.Vector { return p.capacity }

// Windows returns the time-window configuration.
func (p *Pool) Windows() timeseries.Windows { return p.windows }

// Len returns the number of member VMs.
func (p *Pool) Len() int { return len(p.members) }

// Members returns the member VMs keyed by ID (shared map: do not mutate).
func (p *Pool) Members() map[int]*CVM { return p.members }

// Guaranteed returns the summed guaranteed portions (formula 3).
func (p *Pool) Guaranteed() resources.Vector { return p.guaranteed }

// DemandAt returns the summed scheduling demand of resource k in window t.
func (p *Pool) DemandAt(k resources.Kind, t int) float64 {
	return p.demandSum[int(k)*p.windows.PerDay+t]
}

// byID returns the members in ascending id order. Sums over members
// run in this order, so their bits do not depend on Go's randomized map
// iteration.
func (p *Pool) byID() []*CVM {
	out := make([]*CVM, 0, len(p.members))
	for _, vm := range p.members {
		out = append(out, vm)
	}
	slices.SortFunc(out, func(a, b *CVM) int { return a.ID - b.ID })
	return out
}

// Oversubscribed returns, per resource, the multiplexed oversubscribed
// pool size: the max across windows of the summed VA demands (formula 4).
func (p *Pool) Oversubscribed() resources.Vector {
	members := p.byID()
	var out resources.Vector
	for _, k := range resources.Kinds {
		var m float64
		for t := 0; t < p.windows.PerDay; t++ {
			var sum float64
			for _, vm := range members {
				sum += vm.VADemand[k][t]
			}
			if sum > m {
				m = sum
			}
		}
		out[k] = m
	}
	return out
}

// Backed returns, per resource, the peak summed scheduling demand across
// windows: the physical resources the server must actually reserve. For
// memory this equals guaranteed + oversubscribed (formulas 3 + 4).
func (p *Pool) Backed() resources.Vector { return p.backed }

// rescanBacked re-derives the cached Backed from the (non-negative) slab.
func (p *Pool) rescanBacked() {
	w := p.windows.PerDay
	for k := range p.backed {
		p.backed[k] = stats.Max(p.demandSum[k*w : (k+1)*w])
	}
}

// Free returns capacity - Backed, the room left for further VMs.
func (p *Pool) Free() resources.Vector {
	return p.capacity.Sub(p.Backed()).ClampNonNegative()
}

// Fits reports whether adding vm would keep the pool feasible.
func (p *Pool) Fits(vm *CVM) bool {
	if vm.Pred.Windows != p.windows {
		return false
	}
	w := p.windows.PerDay
	for _, k := range resources.Kinds {
		limit := p.capacity[k] + 1e-9
		if resources.KindFungibility(k) == resources.NonFungible && p.guaranteed[k]+vm.Guaranteed[k] > limit {
			return false
		}
		// O(1) accept per kind: every window's sum is at most backed[k]
		// and every window's demand at most peak[k], and rounded float
		// addition is monotone in both operands, so the peaks fitting
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
	p.guaranteed = p.guaranteed.Add(vm.Guaranteed)
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
	p.guaranteed = p.guaranteed.Sub(vm.Guaranteed).ClampNonNegative()
	for i, d := range vm.demand {
		p.demandSum[i] -= d
		if p.demandSum[i] < 0 {
			p.demandSum[i] = 0
		}
	}
	p.rescanBacked()
	return vm
}

// MultiplexSavings returns, per resource, the amount saved by multiplexing
// the VA demands across windows instead of summing their peaks: sum over
// VMs of max_t VA_i,t minus max_t sum over VMs VA_i,t. This is the
// "Multiplex Saved" quantity illustrated in Fig. 16b.
func (p *Pool) MultiplexSavings() resources.Vector {
	var naive resources.Vector
	for _, vm := range p.byID() {
		for _, k := range resources.Kinds {
			var m float64
			for _, d := range vm.VADemand[k] {
				if d > m {
					m = d
				}
			}
			naive[k] += m
		}
	}
	return naive.Sub(p.Oversubscribed()).ClampNonNegative()
}
