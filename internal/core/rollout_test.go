package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/timeseries"
)

// admitOutcome is one request's placement decision in the reference
// serial admission sequence.
type admitOutcome struct {
	server   int // -1 when rejected
	pressure bool
	capacity bool
}

// serialAdmitStep replicates serve's per-request placement decision (the
// pressure-filtered pick, the pressure rejection, the best-fit fallback)
// against live state through the ranking oracle, applying the placement
// like an admission does.
func serialAdmitStep(t *testing.T, sched *scheduler.Scheduler, dp *DataPlane, cvm *coachvm.CVM, frac float64) admitOutcome {
	t.Helper()
	need := VAPeakGB(cvm)
	srv, placed := -1, false
	if frac > 0 && need > 0 {
		if c, ok := refPickPlacement(sched, dp, cvm, -1, need, frac); ok {
			if err := sched.PlaceAt(cvm, c.server); err == nil {
				srv, placed = c.server, true
			}
		} else if len(ranked(sched, cvm, -1)) > 0 {
			return admitOutcome{server: -1, pressure: true}
		}
	}
	if !placed {
		if v, ok := sched.Place(cvm); ok {
			srv = v
		} else {
			return admitOutcome{server: -1, capacity: true}
		}
	}
	size, pa := cvm.Alloc[resources.Memory], cvm.Guaranteed[resources.Memory]
	if err := dp.Attach(srv, cvm.ID, size, pa); err != nil {
		t.Fatal(err)
	}
	return admitOutcome{server: srv}
}

// loadFixture skews one fixture's pools so servers differ in pressure,
// identically for the serial and rollout copies.
func loadFixture(t *testing.T, sched *scheduler.Scheduler, dp *DataPlane) {
	t.Helper()
	id := 1000
	for srv := 0; srv < 3; srv++ {
		for j := 0; j <= srv; j++ {
			place(t, sched, dp, oversubCVM(t, id, 1, 8, 0.1), srv)
			dp.SetWSS(id, 6)
			id++
		}
	}
	if _, _, err := dp.Tick(1); err != nil {
		t.Fatal(err)
	}
}

// TestRolloutMatchesSerialAdmission is the core half of the admission
// contract: one rollout per request, read by serve's decision (the
// pressure-filtered pick, the pressure rejection, the best-fit fallback),
// must make exactly the decisions the ranking-based serial sequence makes
// on an identical twin fixture — including requests rejected because
// earlier requests consumed the capacity or pool headroom they needed.
func TestRolloutMatchesSerialAdmission(t *testing.T) {
	mkReqs := func() []*coachvm.CVM {
		var reqs []*coachvm.CVM
		// Big CPU footprints against 16-core servers force capacity
		// conflicts (32-core requests fit nowhere at all); heavier working
		// sets with a low pressure bar force pressure rejections once pools
		// fill.
		shapes := []struct{ cores, mem, frac float64 }{
			{8, 16, 0.1}, {8, 32, 0.3}, {4, 8, 0.1}, {12, 16, 0.2},
			{32, 16, 0.1}, {8, 8, 0.5}, {16, 32, 0.1}, {4, 16, 0.1},
			{8, 16, 0.3}, {2, 4, 0.1}, {32, 64, 0.1}, {8, 16, 0.1},
		}
		for i, sp := range shapes {
			reqs = append(reqs, oversubCVM(t, i+1, sp.cores, sp.mem, sp.frac))
		}
		return reqs
	}

	for _, frac := range []float64{0, 0.35, 0.95} {
		_, schedS, dpS := engineFixture(t, 5, DefaultMigrationConfig(), 0.25)
		engR, schedR, dpR := engineFixture(t, 5, DefaultMigrationConfig(), 0.25)
		loadFixture(t, schedS, dpS)
		loadFixture(t, schedR, dpR)

		reqsS, reqsR := mkReqs(), mkReqs()
		want := make([]admitOutcome, len(reqsS))
		for r, cvm := range reqsS {
			want[r] = serialAdmitStep(t, schedS, dpS, cvm, frac)
		}

		scorer := engR.Scorer()
		base := scorer.Stats()
		for r, cvm := range reqsR {
			need := VAPeakGB(cvm)
			bar := math.Inf(1)
			if frac > 0 && need > 0 {
				bar = frac
			}
			ro := scorer.Score(cvm, need)
			got := admitOutcome{server: ro.Pick(-1, bar)}
			switch {
			case got.server >= 0:
				if err := schedR.PlaceAt(cvm, got.server); err != nil {
					t.Fatal(err)
				}
				size, pa := cvm.Alloc[resources.Memory], cvm.Guaranteed[resources.Memory]
				if err := dpR.Attach(got.server, cvm.ID, size, pa); err != nil {
					t.Fatal(err)
				}
			case ro.Pick(-1, math.Inf(1)) >= 0:
				got.pressure = true
			default:
				got.capacity = true
			}
			if got != want[r] {
				t.Fatalf("frac %g request %d: rollout %+v, serial %+v", frac, r, got, want[r])
			}
		}
		if got := scorer.Stats().Batches - base.Batches; got != int64(len(reqsR)) {
			t.Fatalf("frac %g: %d requests ran %d rollouts, want one each", frac, len(reqsR), got)
		}

		// The shapes above are chosen to produce every outcome class at the
		// mid bar, so the equivalence is not vacuous.
		if frac == 0.35 {
			var admits, prejects, crejects int
			for _, w := range want {
				switch {
				case w.server >= 0:
					admits++
				case w.pressure:
					prejects++
				case w.capacity:
					crejects++
				}
			}
			if admits == 0 || prejects == 0 || crejects == 0 {
				t.Fatalf("outcome mix admits=%d pressure=%d capacity=%d leaves a branch untested", admits, prejects, crejects)
			}
		}
	}
}

// TestRolloutNoDataPlane covers a scorer without a data plane: every
// pressure projection reports 1 — the no-pool convention — so only a bar
// above 1 ever passes.
func TestRolloutNoDataPlane(t *testing.T) {
	_, sched, _ := engineFixture(t, 3, DefaultMigrationConfig(), 0.25)
	scorer := NewWhatIfScorer(sched, nil)
	ro := scorer.Score(oversubCVM(t, 1, 2, 8, 0.1), 4)
	inf := math.Inf(1)
	fit := ro.Pick(-1, inf)
	if fit < 0 {
		t.Error("real CVM must fit an empty fleet")
	}
	if ro.Pick(-1, 0.99) != -1 {
		t.Error("without a data plane every projection is 1: bars below 1 never pass")
	}
	if got := ro.Pick(-1, 1.5); got != fit {
		t.Errorf("bar above 1 must reduce to best fit: got %d, want %d", got, fit)
	}
	// Every pool reads 1, so the fallback's ties go to the higher score:
	// the best fit again, and the runner-up once that is excluded.
	if got := ro.LeastPressured(-1); got != fit {
		t.Errorf("fallback with equal pressures chose %d, want the best fit %d", got, fit)
	}
	if got, want := ro.LeastPressured(fit), ro.Pick(fit, inf); got != want || got == fit {
		t.Errorf("fallback excluding %d chose %d, want %d", fit, got, want)
	}
}

// TestPickMatchesPlaceUnderChurn holds the one-row rollout's unfiltered
// pick to scheduler.Place — which skips all but the first pristine server
// of each capacity — after every step of a churned fleet: a server
// drained to float residue, a down server, mixed capacities, and
// removals and MigrateTo moves between placements.
func TestPickMatchesPlaceUnderChurn(t *testing.T) {
	w := timeseries.Windows{PerDay: 6}
	small := cluster.ServerSpec{Name: "s", Generation: 1, Capacity: resources.NewVector(16, 64, 10, 1024)}
	big := cluster.ServerSpec{Name: "b", Generation: 2, Capacity: resources.NewVector(64, 256, 40, 4096)}
	mixed := cluster.NewFleet([]cluster.Config{{Name: "S", Spec: small, Servers: 5}, {Name: "B", Spec: big, Servers: 5}})
	uniform := cluster.NewFleet([]cluster.Config{{Name: "S", Spec: small, Servers: 8}})
	for name, fleet := range map[string]*cluster.Fleet{"uniform": uniform, "mixed": mixed} {
		var view []*cluster.Server
		for i := range fleet.Servers { // interleave capacities in the mixed fleet
			view = append(view, &fleet.Servers[(i%2)*(len(fleet.Servers)/2)+i/2])
		}
		sched, err := scheduler.NewOverServers(view, w)
		if err != nil {
			t.Fatal(err)
		}
		if name == "mixed" {
			sched.SetDown(2, true)
		}
		scorer := NewWhatIfScorer(sched, nil)
		rng := rand.New(rand.NewSource(5))
		// Fill server 0 alone, then drain it in a different order: empty,
		// but not pristine.
		var ids []int
		for id := 0; id < 200; id++ {
			if sched.PlaceAt(churnCVM(t, rng, id, w), 0) == nil {
				ids = append(ids, id)
			}
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids {
			sched.Remove(id)
		}

		placed, rejected := 0, 0
		for id := 1000; id < 1400; id++ {
			vm := churnCVM(t, rng, id, w)
			want := scorer.Score(vm, 0).Pick(-1, math.Inf(1))
			got, ok := sched.Place(vm)
			if got != want || ok != (want >= 0) {
				t.Fatalf("%s: vm %d placed on %d (ok=%v), one-row Pick says %d", name, id, got, ok, want)
			}
			if ok {
				placed++
			} else {
				rejected++
			}
			victim := 1000 + rng.Intn(id-999)
			switch rng.Intn(4) {
			case 0:
				sched.Remove(victim)
			case 1:
				_ = sched.MigrateTo(victim, rng.Intn(sched.NumServers()))
			}
		}
		if placed == 0 || rejected == 0 {
			t.Errorf("%s: vacuous run: %d placed, %d rejected", name, placed, rejected)
		}
	}
}

// churnCVM builds a Coach-policy CVM with a random per-window shape;
// network allocations in 0.1 Gbps steps leave float residue when a pool
// drains.
func churnCVM(t *testing.T, rng *rand.Rand, id int, w timeseries.Windows) *coachvm.CVM {
	t.Helper()
	cores := float64(int(1) << rng.Intn(4))
	alloc := resources.NewVector(cores, 4*cores, 0.1*float64(1+rng.Intn(30)), 32*cores)
	p := coachvm.Prediction{Windows: w, Percentile: 95}
	for _, k := range resources.Kinds {
		p.Max[k] = make([]float64, w.PerDay)
		p.Pct[k] = make([]float64, w.PerDay)
		for i := range p.Max[k] {
			p.Max[k][i] = 0.05 * float64(1+rng.Intn(20))
			p.Pct[k][i] = p.Max[k][i] * rng.Float64()
		}
	}
	cvm, err := coachvm.New(id, alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	return cvm
}
