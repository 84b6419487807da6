package core

import (
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/scheduler"
)

// WhatIfScorer batches the placement question every control-plane
// decision asks: "admit/migrate/recover VM X onto any of K candidate
// servers" (docs/DESIGN.md §14). One Score call runs a single
// scratch-backed candidate enumeration (scheduler.CandidatesInto) and a
// single batched pool-pressure sweep (DataPlane.ProjectPressures) over
// the whole ranking, instead of the per-candidate calls the decision
// loops used to make — so a decision's cost is one pass over K servers,
// and the scratch is reused across decisions, keeping the serving and
// simulation hot paths allocation-free in steady state.
//
// Decisions are exactly those of the unbatched loops: PickPlacement takes
// the first candidate in rank order whose projected pressure clears the
// bar, PickRecovery and PickSettle take the least-pressured candidate
// with ties broken on rank. The golden-equivalence and migration-behavior
// tests pin this.
//
// A scorer belongs to one shard and is driven under that shard's lock (or
// from its single replay goroutine), like the scheduler and data plane it
// wraps; it is not internally synchronized.
type WhatIfScorer struct {
	sched *scheduler.Scheduler
	dp    *DataPlane

	cands []scheduler.Candidate
	press []float64

	// rollout is the multi-request scratch ScoreMany hands out
	// (rollout.go); one live rollout per scorer, like cands/press.
	rollout Rollout

	batches int64 // pressure sweeps run
	scored  int64 // candidates scored across sweeps
}

// WhatIfStats counts the scorer's batched work: Batches pressure sweeps
// covering Scored candidates in total. A decision path that batches
// correctly runs one sweep per decision (recovery's least-pressured
// fallback adds a second), however many candidates the fleet offers —
// the call-count tests in serve and core assert exactly that.
type WhatIfStats struct {
	Batches int64
	Scored  int64
}

// NewWhatIfScorer builds a scorer over one shard's scheduler and data
// plane (the same pair a MigrationEngine coordinates).
func NewWhatIfScorer(sched *scheduler.Scheduler, dp *DataPlane) *WhatIfScorer {
	return &WhatIfScorer{sched: sched, dp: dp}
}

// Stats returns the scorer's cumulative counters.
func (w *WhatIfScorer) Stats() WhatIfStats {
	return WhatIfStats{Batches: w.batches, Scored: w.scored}
}

// Score ranks cvm's feasible servers (excluding exclude, -1 for none) and
// projects every candidate pool's occupancy after absorbing needGB, as
// one enumeration plus one batched sweep. Both returned slices are the
// scorer's scratch — valid only until the next Score call, never to be
// retained.
func (w *WhatIfScorer) Score(cvm *coachvm.CVM, exclude int, needGB float64) ([]scheduler.Candidate, []float64) {
	w.cands = w.sched.CandidatesInto(cvm, exclude, w.cands[:0])
	w.press = w.dp.ProjectPressures(w.cands, needGB, w.press)
	w.batches++
	w.scored += int64(len(w.cands))
	return w.cands, w.press
}

// rescore re-projects the current candidate ranking under a different
// incoming demand without re-enumerating — recovery's fallback reuses the
// ranking Score just built.
func (w *WhatIfScorer) rescore(needGB float64) []float64 {
	w.press = w.dp.ProjectPressures(w.cands, needGB, w.press)
	w.batches++
	w.scored += int64(len(w.cands))
	return w.press
}

// PickPlacement ranks cvm's feasible servers by the scheduler's best-fit
// policy and returns the best one whose pool, after absorbing needGB of
// incoming resident demand, stays below pressureFrac occupancy (ok=false
// when none qualifies), in one batched pass. It is the placement decision
// shared by same-shard migration landing and the cross-shard apply step;
// admission makes the same decision over a Rollout row (PickPressured).
func (w *WhatIfScorer) PickPlacement(cvm *coachvm.CVM, exclude int, needGB, pressureFrac float64) (scheduler.Candidate, bool) {
	cands, press := w.Score(cvm, exclude, needGB)
	for i, c := range cands {
		if press[i] < pressureFrac {
			return c, true
		}
	}
	return scheduler.Candidate{}, false
}

// PickRecovery returns the server a crash-evicted VM re-admits to: the
// pressure-filtered best fit (PickPlacement's decision), else the
// least-pressured feasible server — after a server failure the fleet is
// short capacity, so a pressured-but-feasible home beats losing the VM.
// ok=false means nothing in the shard can host it and the VM is lost. The
// fallback re-projects the ranking already enumerated (at zero incoming
// demand, i.e. current occupancy) rather than enumerating again.
func (w *WhatIfScorer) PickRecovery(cvm *coachvm.CVM, pressureFrac float64) (int, bool) {
	cands, press := w.Score(cvm, -1, VAPeakGB(cvm))
	for i, c := range cands {
		if press[i] < pressureFrac {
			return c.Server, true
		}
	}
	if len(cands) == 0 {
		return -1, false
	}
	press = w.rescore(0)
	best, bestPressure := -1, 0.0
	for i, c := range cands {
		if p := press[i]; best < 0 || p < bestPressure {
			best, bestPressure = c.Server, p
		}
	}
	return best, best >= 0
}

// PickSettle returns the least-pressured feasible server for a migration
// that found no unpressured target (ties break on candidate rank, i.e.
// best fit), -1 when nothing in the shard fits — settleLocal's decision,
// one batched pass at current occupancy.
func (w *WhatIfScorer) PickSettle(cvm *coachvm.CVM, exclude int) int {
	cands, press := w.Score(cvm, exclude, 0)
	best, bestPressure := -1, 0.0
	for i, c := range cands {
		if p := press[i]; best < 0 || p < bestPressure {
			best, bestPressure = c.Server, p
		}
	}
	return best
}
