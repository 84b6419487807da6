package core

import (
	"testing"

	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/scheduler"
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
// against live state, applying the placement like an admission does.
func serialAdmitStep(t *testing.T, sched *scheduler.Scheduler, dp *DataPlane, scorer *WhatIfScorer, cvm *coachvm.CVM, frac float64) admitOutcome {
	t.Helper()
	need := VAPeakGB(cvm)
	srv, placed := -1, false
	if frac > 0 && need > 0 {
		if c, ok := scorer.PickPlacement(cvm, -1, need, frac); ok {
			if err := sched.PlaceAt(cvm, c.Server); err == nil {
				srv, placed = c.Server, true
			}
		} else if len(sched.CandidatesInto(cvm, -1, nil)) > 0 {
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
	size, pa := MemoryProfile(cvm)
	if err := dp.Attach(srv, cvm.ID, size, pa); err != nil {
		t.Fatal(err)
	}
	return admitOutcome{server: srv}
}

// loadFixture skews one fixture's pools so servers differ in pressure,
// identically for the serial and batched copies.
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

// TestRolloutMatchesSerialAdmission is the core half of the bit-identity
// contract: one ScoreMany rollout committed in arrival order must make
// exactly the decisions the serial per-request sequence makes on an
// identical twin fixture — including requests rejected because earlier
// requests consumed the capacity or pool headroom they needed.
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
		engS, schedS, dpS := engineFixture(t, 5, DefaultMigrationConfig(), 0.25)
		engB, schedB, dpB := engineFixture(t, 5, DefaultMigrationConfig(), 0.25)
		loadFixture(t, schedS, dpS)
		loadFixture(t, schedB, dpB)

		reqsS, reqsB := mkReqs(), mkReqs()
		want := make([]admitOutcome, len(reqsS))
		for r, cvm := range reqsS {
			want[r] = serialAdmitStep(t, schedS, dpS, engS.Scorer(), cvm, frac)
		}

		needs := make([]float64, len(reqsB))
		for r, cvm := range reqsB {
			needs[r] = VAPeakGB(cvm)
		}
		scorer := engB.Scorer()
		base := scorer.Stats()
		ro := scorer.ScoreMany(reqsB, needs)
		if got := scorer.Stats().Batches - base.Batches; got != 1 {
			t.Fatalf("frac %g: ScoreMany ran %d batches, want 1", frac, got)
		}
		replays := 0
		for r, cvm := range reqsB {
			var got admitOutcome
			srv, placed := -1, false
			if frac > 0 && needs[r] > 0 {
				if c := ro.PickPressured(r, frac); c >= 0 {
					if err := schedB.PlaceAt(cvm, c); err == nil {
						srv, placed = c, true
					}
				} else if ro.HasFeasible(r) {
					got = admitOutcome{server: -1, pressure: true}
					if got != want[r] {
						t.Fatalf("frac %g request %d: batched %+v, serial %+v", frac, r, got, want[r])
					}
					continue
				}
			}
			if !placed {
				if f := ro.PickFit(r); f >= 0 {
					if err := schedB.PlaceAt(cvm, f); err == nil {
						srv, placed = f, true
					}
				}
				if !placed {
					got = admitOutcome{server: -1, capacity: true}
					if got != want[r] {
						t.Fatalf("frac %g request %d: batched %+v, serial %+v", frac, r, got, want[r])
					}
					continue
				}
			}
			size, pa := MemoryProfile(cvm)
			if err := dpB.Attach(srv, cvm.ID, size, pa); err != nil {
				t.Fatal(err)
			}
			replays += ro.Commit(r, srv)
			got = admitOutcome{server: srv}
			if got != want[r] {
				t.Fatalf("frac %g request %d: batched %+v, serial %+v", frac, r, got, want[r])
			}
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
			if replays == 0 {
				t.Fatal("no conflict replays despite in-batch commits")
			}
		}
	}
}

// TestRolloutNilCVMsAndNoDataPlane covers the edge rows: a nil CVM
// (a request that failed before placement) scores infeasible everywhere,
// and without a data plane every pressure projection reports 1 — the
// no-pool convention — so only a bar above 1 ever passes.
func TestRolloutNilCVMsAndNoDataPlane(t *testing.T) {
	_, sched, _ := engineFixture(t, 3, DefaultMigrationConfig(), 0.25)
	scorer := NewWhatIfScorer(sched, nil)
	cvms := []*coachvm.CVM{nil, oversubCVM(t, 1, 2, 8, 0.1)}
	ro := scorer.ScoreMany(cvms, []float64{0, 4})
	if ro.HasFeasible(0) || ro.PickFit(0) != -1 || ro.PickPressured(0, 2) != -1 {
		t.Error("nil CVM row must be entirely infeasible")
	}
	if !ro.HasFeasible(1) || ro.PickFit(1) < 0 {
		t.Error("real CVM must fit an empty fleet")
	}
	if ro.PickPressured(1, 0.99) != -1 {
		t.Error("without a data plane every projection is 1: bars below 1 never pass")
	}
	if got := ro.PickPressured(1, 1.5); got != ro.PickFit(1) {
		t.Errorf("bar above 1 must reduce to best fit: got %d, want %d", got, ro.PickFit(1))
	}
}
