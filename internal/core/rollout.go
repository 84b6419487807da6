package core

import (
	"github.com/coach-oss/coach/internal/coachvm"
)

// This file implements the what-if rollout every placement decision reads
// (docs/DESIGN.md §14): one dense score row filled by
// scheduler.ScoreRowInto and one DataPlane.PoolStatesInto sweep capturing
// raw pool state. Every decision read from the row is bit-identical to the
// sorted best-fit ranking the tests keep as their oracle;
// TestRolloutMatchesSerialAdmission and serve's ordering wall pin this.

// Rollout is one VM's scored placement row, backed by scorer scratch: valid
// only until the scorer's next rollout, never to be retained. The row holds
// the VM's post-placement packing score on every server, -1 where the
// server is down or the VM does not fit. Like the scorer it is driven under
// the shard lock.
type Rollout struct {
	need  float64   // the VM's incoming resident demand (VAPeakGB)
	score []float64 // one cell per server; <0 marks infeasible

	// used/pool mirror DataPlane.PoolStatesInto for pressure projection;
	// nil when the scorer has no data plane (pressure then reports 1,
	// matching ProjectedPressure's no-pool convention).
	used, pool []float64
}

// Score builds cvm's rollout: one ScoreRowInto pass against the
// scheduler's current state and one PoolStatesInto sweep over the data
// plane, counted as one batch in the scorer's stats. needGB is the VM's
// incoming pool demand for pressure projection. The returned Rollout
// shares the scorer's scratch.
func (w *WhatIfScorer) Score(cvm *coachvm.CVM, needGB float64) *Rollout {
	ro := &w.rollout
	ro.need = needGB
	ns := w.sched.NumServers()
	if cap(ro.score) < ns {
		ro.score = make([]float64, ns)
	}
	ro.score = ro.score[:ns]
	w.sched.ScoreRowInto(cvm, ro.score)
	for _, sc := range ro.score {
		if sc >= 0 {
			w.scored++
		}
	}
	if w.dp != nil {
		if cap(ro.used) < ns {
			ro.used = make([]float64, ns)
			ro.pool = make([]float64, ns)
		}
		ro.used = ro.used[:ns]
		ro.pool = ro.pool[:ns]
		w.dp.PoolStatesInto(ro.used, ro.pool)
	} else {
		ro.used, ro.pool = nil, nil
	}
	w.batches++
	return ro
}

// Pick is the one best-fit decision: the server with the highest score
// whose pool, after absorbing the VM's demand, stays below bar, ties going
// to the lowest index; never exclude (-1 = none); -1 when nothing
// qualifies. That is the first server of the best-fit ranking (score
// descending, ties ascending) to clear the bar, found without sorting.
// bar = +Inf drops the pressure filter, leaving the strict-greater
// ascending scan scheduler.Place runs, so Pick(-1, +Inf) >= 0 also answers
// "does anything fit at all".
func (ro *Rollout) Pick(exclude int, bar float64) int {
	best, bestScore := -1, -1.0
	for i, sc := range ro.score {
		if sc < 0 || sc <= bestScore || i == exclude {
			continue
		}
		if ro.pressure(i, ro.need) < bar {
			best, bestScore = i, sc
		}
	}
	return best
}

// LeastPressured is the one fallback when Pick finds no server under the
// bar (crash recovery, and a migration that may not leave its shard): the
// feasible server, never exclude, whose pool is least occupied right now
// (used/pool, before the VM's demand lands), ties going to the higher
// score and then the lower index — the order the best-fit ranking would
// visit them in. -1 when nothing fits.
func (ro *Rollout) LeastPressured(exclude int) int {
	best, bestP, bestScore := -1, 0.0, 0.0
	for i, sc := range ro.score {
		if sc < 0 || i == exclude {
			continue
		}
		if p := ro.pressure(i, 0); best < 0 || p < bestP || (p == bestP && sc > bestScore) {
			best, bestP, bestScore = i, p, sc
		}
	}
	return best
}

// pressure projects server s's pool occupancy after absorbing needGB —
// the ProjectedPressure arithmetic against the snapshot's pool state: 1
// when there is no data plane or no pool, else (used+need)/pool with
// negative need clamped to zero.
func (ro *Rollout) pressure(s int, needGB float64) float64 {
	if ro.pool == nil || ro.pool[s] <= 0 {
		return 1
	}
	return (ro.used[s] + max(needGB, 0)) / ro.pool[s]
}
