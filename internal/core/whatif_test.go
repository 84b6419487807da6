package core

import (
	"sort"
	"testing"

	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/scheduler"
)

// ProjectedPressure is the per-server oracle for Rollout's pressure
// projection: server's pool occupancy after absorbing incomingGB, 1 when
// the server has no pool.
func (d *DataPlane) ProjectedPressure(server int, incomingGB float64) float64 {
	srv := d.servers[server].Server
	pool := srv.PoolGB()
	if pool <= 0 {
		return 1
	}
	return (srv.PoolUsed() + max(incomingGB, 0)) / pool
}

// PressureOf is server's current pool occupancy.
func (d *DataPlane) PressureOf(server int) float64 { return d.ProjectedPressure(server, 0) }

// cand is one feasible server with its best-fit score.
type cand struct {
	server int
	score  float64
}

// ranked is the best-fit ranking the decision loops used to sort, kept as
// the oracle: every feasible server of a ScoreRowInto row except exclude
// (-1 = none), score descending, ties on the lowest index.
func ranked(sched *scheduler.Scheduler, cvm *coachvm.CVM, exclude int) []cand {
	row := make([]float64, sched.NumServers())
	sched.ScoreRowInto(cvm, row)
	var out []cand
	for i, sc := range row {
		if sc >= 0 && i != exclude {
			out = append(out, cand{i, sc})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].score > out[b].score })
	return out
}

// refPickPlacement is the ranking-based decision loop, kept as the
// oracle: the first candidate in rank order whose per-server projected
// pressure clears the bar.
func refPickPlacement(sched *scheduler.Scheduler, dp *DataPlane, cvm *coachvm.CVM, exclude int, needGB, bar float64) (cand, bool) {
	for _, c := range ranked(sched, cvm, exclude) {
		if dp.ProjectedPressure(c.server, needGB) < bar {
			return c, true
		}
	}
	return cand{}, false
}

// refLeastPressured is the ranking-based fallback loop: the first
// candidate in rank order with the lowest current pool occupancy, -1 when
// nothing fits.
func refLeastPressured(sched *scheduler.Scheduler, dp *DataPlane, cvm *coachvm.CVM, exclude int) int {
	best, bestP := -1, 0.0
	for _, c := range ranked(sched, cvm, exclude) {
		if p := dp.PressureOf(c.server); best < 0 || p < bestP {
			best, bestP = c.server, p
		}
	}
	return best
}

// TestWhatIfScorerMatchesUnbatchedLoops pins every single-VM decision —
// the pressured pick, the cross-shard inbound pick, crash recovery and the
// settle fallback — to the ranking-based reference loops across a spread
// of incoming demands and pressure bars, on a fleet with some loaded and
// some empty pools, and each decision to exactly one rollout.
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
	decisions := int64(0)
	for _, tc := range []struct {
		exclude      int
		needGB       float64
		pressureFrac float64
	}{
		{-1, 0, 0.75}, {-1, 3, 0.75}, {5, 3, 0.75},
		{-1, 0, 0.0001}, {5, 100, 0.75}, {0, 2, 0.5},
	} {
		want, wantOK := refPickPlacement(sched, dp, probe, tc.exclude, tc.needGB, tc.pressureFrac)
		ro := scorer.Score(probe, tc.needGB)
		got := ro.Pick(tc.exclude, tc.pressureFrac)
		decisions++
		if (got >= 0) != wantOK || (wantOK && (got != want.server || ro.score[got] != want.score)) {
			t.Errorf("%+v: rollout picked %d, reference %+v/%v", tc, got, want, wantOK)
		}
	}

	// Cross-shard inbound: the pick at the engine's bar, with its score.
	want, wantOK := refPickPlacement(sched, dp, probe, -1, VAPeakGB(probe), eng.cfg.PressureFrac)
	wantSrv := -1
	if wantOK {
		wantSrv = want.server
	}
	srv, score, ok := eng.PickInbound(MigrationRequest{VMID: probe.ID, CVM: probe})
	decisions++
	if ok != wantOK || srv != wantSrv || score != want.score {
		t.Errorf("inbound: engine %d/%v/%v, reference %+v/%v", srv, score, ok, want, wantOK)
	}

	// Recovery: the pressure-filtered pick, else the least-pressured
	// fallback read from the same row.
	for _, frac := range []float64{0.75, 0.0001} {
		eng.cfg.PressureFrac = frac
		want := refLeastPressured(sched, dp, probe, -1)
		if c, ok := refPickPlacement(sched, dp, probe, -1, VAPeakGB(probe), frac); ok {
			want = c.server
		}
		decisions++
		if got := eng.RecoveryTarget(probe); got != want {
			t.Errorf("recovery frac %g: engine %d, reference %d", frac, got, want)
		}
	}

	// Settle: least-pressured with ties on rank.
	decisions++
	if got, want := scorer.Score(probe, 0).LeastPressured(5), refLeastPressured(sched, dp, probe, 5); got != want {
		t.Errorf("settle: rollout %d, reference %d", got, want)
	}

	// Counter shape: one rollout per decision, recovery's fallback
	// included — batching is per decision, not per candidate.
	s := scorer.Stats()
	if got := s.Batches - base.Batches; got != decisions {
		t.Errorf("scorer ran %d batches, want %d", got, decisions)
	}
	if s.Scored <= base.Scored {
		t.Error("scorer scored no candidates")
	}
}

// TestResolveScoresCandidatesInOneBatch is the migration half of the
// batching acceptance test: landing one completed live migration costs
// one what-if rollout over the whole shard, not one pressure probe per
// candidate.
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
		// VA demand, so each landing takes the pressure-filtered pick and
		// the settle fallback — both from one rollout, independent of how
		// many candidate servers the shard offers.
		if got := s.Batches - base.Batches; got != int64(len(completed)) {
			t.Errorf("%d migrations ran %d what-if batches, want one per migration", len(completed), got)
		}
		if perBatch := (s.Scored - base.Scored) / (s.Batches - base.Batches); perBatch < 2 {
			t.Errorf("each sweep scored %d candidates on an 8-server shard", perBatch)
		}
		return
	}
	t.Fatal("no migration completed")
}
