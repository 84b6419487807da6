package core

import (
	"testing"

	"github.com/coach-oss/coach/internal/scheduler"
)

// refPickPlacement is the pre-batching decision loop, kept as the test
// oracle: first candidate in rank order whose per-candidate projected
// pressure clears the bar.
func refPickPlacement(sched *scheduler.Scheduler, dp *DataPlane, vmID int, exclude int, needGB, pressureFrac float64) (scheduler.Candidate, bool) {
	cvm := sched.CVM(vmID)
	for _, c := range sched.CandidatesInto(cvm, exclude, nil) {
		if dp.ProjectedPressure(c.Server, needGB) < pressureFrac {
			return c, true
		}
	}
	return scheduler.Candidate{}, false
}

// TestWhatIfScorerMatchesUnbatchedLoops pins the scorer's decisions to
// the per-candidate reference loops across a spread of incoming demands
// and pressure bars, on a fleet with some loaded and some empty pools.
func TestWhatIfScorerMatchesUnbatchedLoops(t *testing.T) {
	eng, sched, dp := engineFixture(t, 6, DefaultMigrationConfig(), 0.25)
	// Load a few pools unevenly so pressures differ across servers.
	id := 1
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

	probe := oversubCVM(t, 900, 2, 16, 0.1)
	if err := sched.PlaceAt(probe, 5); err != nil {
		t.Fatal(err)
	}
	scorer := eng.Scorer()
	base := scorer.Stats()
	for _, tc := range []struct {
		exclude      int
		needGB       float64
		pressureFrac float64
	}{
		{-1, 0, 0.75}, {-1, 3, 0.75}, {5, 3, 0.75},
		{-1, 0, 0.0001}, {5, 100, 0.75}, {0, 2, 0.5},
	} {
		wantC, wantOK := refPickPlacement(sched, dp, probe.ID, tc.exclude, tc.needGB, tc.pressureFrac)
		gotC, gotOK := scorer.PickPlacement(probe, tc.exclude, tc.needGB, tc.pressureFrac)
		if gotOK != wantOK || gotC != wantC {
			t.Errorf("%+v: scorer picked %+v/%v, reference %+v/%v", tc, gotC, gotOK, wantC, wantOK)
		}
	}

	// Recovery: pressure-filtered pick and the least-pressured fallback.
	expectBatches := int64(6) // the PickPlacement cases above, 1 sweep each
	for _, frac := range []float64{0.75, 0.0001} {
		cands := sched.CandidatesInto(probe, -1, nil)
		wantSrv, wantOK := -1, false
		for _, c := range cands {
			if dp.ProjectedPressure(c.Server, VAPeakGB(probe)) < frac {
				wantSrv, wantOK = c.Server, true
				break
			}
		}
		expectBatches++ // the filtered sweep
		if !wantOK {
			bestP := 0.0
			for _, c := range cands {
				if p := dp.PressureOf(c.Server); wantSrv < 0 || p < bestP {
					wantSrv, bestP = c.Server, p
				}
			}
			wantOK = wantSrv >= 0
			if len(cands) > 0 {
				expectBatches++ // the fallback re-score
			}
		}
		gotSrv, gotOK := scorer.PickRecovery(probe, frac)
		if gotOK != wantOK || gotSrv != wantSrv {
			t.Errorf("recovery frac %g: scorer %d/%v, reference %d/%v", frac, gotSrv, gotOK, wantSrv, wantOK)
		}
	}

	// Settle: least-pressured with ties on rank.
	wantSettle := -1
	bestP := 0.0
	for _, c := range sched.CandidatesInto(probe, 5, nil) {
		if p := dp.PressureOf(c.Server); wantSettle < 0 || p < bestP {
			wantSettle, bestP = c.Server, p
		}
	}
	if got := scorer.PickSettle(probe, 5); got != wantSettle {
		t.Errorf("settle: scorer %d, reference %d", got, wantSettle)
	}

	// Counter shape: one sweep per decision (plus recovery fallbacks the
	// loop above accounted for) — batching is per decision, not per
	// candidate.
	expectBatches++ // the settle sweep
	s := scorer.Stats()
	if got := s.Batches - base.Batches; got != expectBatches {
		t.Errorf("scorer ran %d batches, want %d", got, expectBatches)
	}
	if s.Scored <= base.Scored {
		t.Error("scorer scored no candidates")
	}
}

// TestResolveScoresCandidatesInOneBatch is the migration half of the
// batching acceptance test: landing one completed live migration costs
// one what-if sweep over the whole candidate ranking, not one pressure
// probe per candidate.
func TestResolveScoresCandidatesInOneBatch(t *testing.T) {
	// Pool 4GB per server: three 4GB working sets overwhelm server 0's
	// pool and the agent migrates one (same fixture as the engine tests).
	eng, sched, dp := engineFixture(t, 8, DefaultMigrationConfig(), 0.0625)
	for id := 1; id <= 3; id++ {
		place(t, sched, dp, oversubCVM(t, id, 2, 16, 0.05), 0)
	}
	for tick := 0; tick < 600; tick++ {
		for id := 1; id <= 3; id++ {
			dp.SetWSS(id, 4)
		}
		_, completed, err := dp.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(completed) == 0 {
			continue
		}
		base := eng.Scorer().Stats()
		plans, _, err := eng.Resolve(tick, completed)
		if err != nil {
			t.Fatal(err)
		}
		if len(plans) != len(completed) {
			t.Fatalf("%d completed migrations produced %d plans", len(completed), len(plans))
		}
		s := eng.Scorer().Stats()
		// In this fixture every pool is too small to absorb the migrated
		// VA demand, so each landing is exactly two batched sweeps — the
		// pressure-filtered pick and the settle fallback — independent of
		// how many candidate servers the shard offers.
		if got := s.Batches - base.Batches; got != 2*int64(len(completed)) {
			t.Errorf("%d migrations ran %d what-if batches, want two per migration", len(completed), got)
		}
		if perBatch := (s.Scored - base.Scored) / (s.Batches - base.Batches); perBatch < 2 {
			t.Errorf("each sweep scored %d candidates on an 8-server shard", perBatch)
		}
		return
	}
	t.Fatal("no migration completed")
}

// TestProjectPressuresMatchesProjectedPressure pins the batched sweep to
// the scalar projection per candidate.
func TestProjectPressuresMatchesProjectedPressure(t *testing.T) {
	_, sched, dp := engineFixture(t, 4, DefaultMigrationConfig(), 0.25)
	place(t, sched, dp, oversubCVM(t, 1, 1, 8, 0.1), 0)
	dp.SetWSS(1, 6)
	if _, _, err := dp.Tick(1); err != nil {
		t.Fatal(err)
	}
	cands := []scheduler.Candidate{{Server: 3}, {Server: 0}, {Server: 1}}
	for _, need := range []float64{0, 2.5, -1} {
		out := dp.ProjectPressures(cands, need, nil)
		for i, c := range cands {
			if want := dp.ProjectedPressure(c.Server, need); out[i] != want {
				t.Errorf("need %g candidate %d: batched %v, scalar %v", need, c.Server, out[i], want)
			}
		}
	}
	// Scratch reuse: a big-enough out slice is returned as-is.
	scratch := make([]float64, 8)
	out := dp.ProjectPressures(cands, 1, scratch)
	if len(out) != len(cands) || &out[0] != &scratch[0] {
		t.Error("ProjectPressures reallocated despite sufficient scratch")
	}
}
