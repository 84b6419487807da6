package coachvm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/stats"
	"github.com/coach-oss/coach/internal/trace"
)

// refSchedDemand is the scheduling demand as it was computed per probe
// before CVMs carried a resolved row: from Pred, Guaranteed, VADemand and
// Alloc alone.
func refSchedDemand(vm *CVM, k resources.Kind, t int) float64 {
	if resources.KindFungibility(k) == resources.NonFungible {
		return vm.Guaranteed[k] + vm.VADemand[k][t]
	}
	return roundUp(stats.BucketUp(vm.Pred.Max[k][t], FractionBucket)*vm.Alloc[k], vm.Alloc[k], k)
}

// refFits is the original (windows+1)-dimensional feasibility test, in
// resources.Units.
func refFits(p *Pool, vm *CVM) bool {
	if vm.Pred.Windows != p.windows {
		return false
	}
	u := resources.ToUnit
	for _, k := range resources.Kinds {
		limit := u(p.Capacity()[k])
		if resources.KindFungibility(k) == resources.NonFungible {
			if u(p.Guaranteed()[k])+u(vm.Guaranteed[k]) > limit {
				return false
			}
		}
		for t := 0; t < p.windows.PerDay; t++ {
			if u(p.DemandAt(k, t))+u(refSchedDemand(vm, k, t)) > limit {
				return false
			}
		}
	}
	return true
}

// stepCVM is randCVM with the network allocation in 0.1 Gbps steps — the
// granularity whose float sums do not cancel exactly when a pool drains.
func stepCVM(t *testing.T, rng *rand.Rand, id int) *CVM {
	t.Helper()
	vm := randCVM(t, rng, id, w6)
	alloc := vm.Alloc
	alloc[resources.Network] = 0.1 * float64(1+rng.Intn(40))
	vm, err := New(id, alloc, vm.Pred)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

// TestSchedDemandMatchesFormula pins the resolved demand row and its peak
// to the formula in resources.Units, for both constructors and for a
// prediction collapsed to its lifetime maxima (what PolicySingle builds),
// and checks that every formula value lies on the unit grid, so the
// rounding to units loses nothing.
func TestSchedDemandMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		vm := stepCVM(t, rng, i)
		flat := vm.Pred
		for _, k := range resources.Kinds {
			flat.Max[k] = constant(w6.PerDay, stats.Max(vm.Pred.Max[k]))
			flat.Pct[k] = constant(w6.PerDay, stats.Max(vm.Pred.Pct[k]))
		}
		single, err := New(i, vm.Alloc, flat)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*CVM{
			"New": vm, "FullyGuaranteed": FullyGuaranteed(i, vm.Alloc, w6), "collapsed": single,
		} {
			for _, k := range resources.Kinds {
				var peak int64
				for w := 0; w < w6.PerDay; w++ {
					f := refSchedDemand(c, k, w)
					want := resources.ToUnit(f)
					if math.Abs(f*resources.PerUnit-float64(want)) > 1e-6 {
						t.Fatalf("%s vm %d: formula %v for (%v,%d) is off the unit grid", name, i, f, k, w)
					}
					if got := c.demand[int(k)*w6.PerDay+w]; got != want {
						t.Fatalf("%s vm %d: demand(%v,%d) = %d units, formula %d", name, i, k, w, got, want)
					}
					peak = max(peak, want)
				}
				if c.peak[k] != peak {
					t.Fatalf("%s vm %d: peak[%v] = %v, want %v", name, i, k, c.peak[k], peak)
				}
			}
		}
	}
}

// TestShippedAmountsOnUnitGrid checks the premise of resources.Units:
// every shipped VM allocation and server capacity, and every scheduling
// demand and guaranteed portion a CVM resolves from such an allocation,
// is a whole count of 1/PerUnit, so Pool's sums of them are exact.
func TestShippedAmountsOnUnitGrid(t *testing.T) {
	onGrid := func(what string, v resources.Vector) {
		t.Helper()
		for _, k := range resources.Kinds {
			if math.Abs(v[k]*resources.PerUnit-float64(resources.ToUnit(v[k]))) > 1e-6 {
				t.Fatalf("%s: %v %v is off the unit grid", what, v[k], k.Unit())
			}
		}
	}
	for _, c := range cluster.DefaultClusters(1) {
		onGrid(c.Name, c.Spec.Capacity)
	}
	rng := rand.New(rand.NewSource(11))
	for i, c := range trace.DefaultConfigs() {
		onGrid(c.Name, c.Alloc)
		vm := randCVM(t, rng, i, w6)
		vm, err := New(i, c.Alloc, vm.Pred)
		if err != nil {
			t.Fatal(err)
		}
		onGrid(c.Name+" guaranteed", vm.Guaranteed)
		for w := 0; w < w6.PerDay; w++ {
			var d resources.Vector
			for _, k := range resources.Kinds {
				d[k] = refSchedDemand(vm, k, w)
			}
			onGrid(c.Name+" demand", d)
		}
	}
}

func constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestPoolCachedBackedAndFitsProperty drives one pool through thousands
// of random Add/Remove steps and checks after each that the cached Backed
// is bit-for-bit a fresh scan of the demand slab and that Fits agrees with
// the original per-window formula — on probes the O(1) accept passes,
// probes only the per-window loop passes, and probes that do not fit.
func TestPoolCachedBackedAndFitsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := NewPool(resources.NewVector(48, 256, 12, 2048), w6)
	var live []int
	var byPeak, byWindows, rejected, drained int
	for step := 0; step < 6000; step++ {
		if len(live) > 0 && (rng.Intn(2) == 0 || step%1000 > 900) {
			i := rng.Intn(len(live))
			if p.Remove(live[i]) == nil {
				t.Fatalf("step %d: member %d missing", step, live[i])
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else if vm := stepCVM(t, rng, step); p.Add(vm) == nil {
			live = append(live, vm.ID)
		}

		var scan resources.Vector
		for _, k := range resources.Kinds {
			for w := 0; w < w6.PerDay; w++ {
				if s := p.DemandAt(k, w); s > scan[k] {
					scan[k] = s
				}
			}
			if got := p.Backed()[k]; math.Float64bits(got) != math.Float64bits(scan[k]) {
				t.Fatalf("step %d: cached Backed[%v] = %v, slab scan %v", step, k, got, scan[k])
			}
		}
		if p.Len() == 0 {
			drained++
		}

		for i := 0; i < 4; i++ {
			probe := stepCVM(t, rng, -1)
			want := refFits(p, probe)
			if got := p.Fits(probe); got != want {
				t.Fatalf("step %d: Fits = %v, per-window formula %v", step, got, want)
			}
			switch {
			case !want:
				rejected++
			case unitsFit(p.backed.Add(probe.peak), p.limit):
				byPeak++
			default:
				byWindows++
			}
		}
	}
	if byPeak == 0 || byWindows == 0 || rejected == 0 || drained == 0 {
		t.Errorf("vacuous: %d fits by peak, %d by windows only, %d rejected, %d drained states",
			byPeak, byWindows, rejected, drained)
	}
}

func unitsFit(u, limit resources.Units) bool {
	for k := range u {
		if u[k] > limit[k] {
			return false
		}
	}
	return true
}
