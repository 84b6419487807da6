package core

import (
	"github.com/coach-oss/coach/internal/coachvm"
)

// This file implements the what-if rollout every placement decision reads
// (docs/DESIGN.md §14, §15): one dense (request × server) score matrix
// filled by scheduler.ScoreRowInto and one DataPlane.PoolStatesInto sweep
// capturing raw pool state. A single-VM decision is one row; an admit
// batch is one row per coalesced request, committed in arrival order:
// committing request r on server s invalidates exactly column s of the
// later rows (no other server's pool or scheduler state changed), so
// Commit re-scores that single cell per remaining request instead of
// re-running the sweep. Every decision read from the matrix is
// bit-identical to what a fresh one-row rollout would have computed at the
// same point in arrival order, and to the sorted best-fit ranking the
// tests keep as their oracle; TestRolloutMatchesSerialAdmission and
// serve's equivalence tests pin this.

// Rollout is one scored placement matrix, backed by scorer scratch: valid
// only until the scorer's next rollout, never to be retained. Row r holds
// request r's post-placement packing score on every server, -1 where the
// server is down or the VM does not fit (nil CVMs — requests that failed
// before placement — score -1 everywhere). Like the scorer it is driven
// under the shard lock.
type Rollout struct {
	w     *WhatIfScorer
	cvms  []*coachvm.CVM
	needs []float64

	ns    int
	score []float64 // len(cvms) × ns, row-major; <0 marks infeasible

	// used/pool mirror DataPlane.PoolStatesInto for pressure projection;
	// nil when the scorer has no data plane (pressure then reports 1,
	// matching ProjectedPressure's no-pool convention).
	used, pool []float64
}

// ScoreMany scores every (request, server) placement as a single rollout:
// one ScoreRowInto pass per request against the scheduler's current state
// and one PoolStatesInto sweep over the data plane, counted as one batch
// in the scorer's stats however many requests it holds. needs[r] is
// request r's incoming resident demand (VAPeakGB) for pressure
// projection; cvms[r] may be nil for requests that failed before
// placement. The returned Rollout shares the scorer's scratch.
func (w *WhatIfScorer) ScoreMany(cvms []*coachvm.CVM, needs []float64) *Rollout {
	ro := &w.rollout
	ro.w = w
	ro.cvms = cvms
	ro.needs = needs
	ro.ns = w.sched.NumServers()
	n := len(cvms) * ro.ns
	if cap(ro.score) < n {
		ro.score = make([]float64, n)
	}
	ro.score = ro.score[:n]
	scored := 0
	for r, cvm := range cvms {
		row := ro.score[r*ro.ns : (r+1)*ro.ns]
		if cvm == nil {
			for i := range row {
				row[i] = -1
			}
			continue
		}
		w.sched.ScoreRowInto(cvm, row)
		for _, sc := range row {
			if sc >= 0 {
				scored++
			}
		}
	}
	if w.dp != nil {
		if cap(ro.used) < ro.ns {
			ro.used = make([]float64, ro.ns)
			ro.pool = make([]float64, ro.ns)
		}
		ro.used = ro.used[:ro.ns]
		ro.pool = ro.pool[:ro.ns]
		w.dp.PoolStatesInto(ro.used, ro.pool)
	} else {
		ro.used, ro.pool = nil, nil
	}
	w.batches++
	w.scored += int64(scored)
	return ro
}

// Pick is the one best-fit decision: the server with the highest score
// for request r whose pool, after absorbing needs[r], stays below bar,
// ties going to the lowest index; never exclude (-1 = none); -1 when
// nothing qualifies. That is the first server of the best-fit ranking
// (score descending, ties ascending) to clear the bar, found without
// sorting. bar = +Inf drops the pressure filter, leaving the strict-greater
// ascending scan scheduler.Place runs, so Pick(r, -1, +Inf) >= 0 also
// answers "does anything fit at all".
func (ro *Rollout) Pick(r, exclude int, bar float64) int {
	best, bestScore := -1, -1.0
	for i, sc := range ro.row(r) {
		if sc < 0 || sc <= bestScore || i == exclude {
			continue
		}
		if ro.pressure(i, ro.needs[r]) < bar {
			best, bestScore = i, sc
		}
	}
	return best
}

// LeastPressured is the one fallback when Pick finds no server under the
// bar (crash recovery, and a migration that may not leave its shard): the
// feasible server for request r, never exclude, whose pool is least
// occupied right now (used/pool, before r's demand lands), ties going to
// the higher score and then the lower index — the order the best-fit
// ranking would visit them in. -1 when nothing fits.
func (ro *Rollout) LeastPressured(r, exclude int) int {
	best, bestP, bestScore := -1, 0.0, 0.0
	for i, sc := range ro.row(r) {
		if sc < 0 || i == exclude {
			continue
		}
		if p := ro.pressure(i, 0); best < 0 || p < bestP || (p == bestP && sc > bestScore) {
			best, bestP, bestScore = i, p, sc
		}
	}
	return best
}

// Commit folds request r's placement on server into the snapshot so later
// requests observe it, after the caller applied the placement to the live
// scheduler and data plane (PlaceAt + Attach/SetWSS). Only column server
// went stale — a placement mutates that one pool — so each later request's
// cell is re-scored against the live scheduler state and the server's pool
// numbers are re-read, which is bit-identical to rebuilding the whole
// rollout. Returns the number of cells re-scored (the conflict-replay
// count surfaced in serve's admit-batch stats).
func (ro *Rollout) Commit(r, server int) int {
	replays := 0
	for r2 := r + 1; r2 < len(ro.cvms); r2++ {
		cvm := ro.cvms[r2]
		if cvm == nil {
			continue
		}
		ro.score[r2*ro.ns+server] = ro.w.sched.ScoreAt(cvm, server)
		replays++
	}
	ro.w.scored += int64(replays)
	if ro.w.dp != nil {
		srv := ro.w.dp.servers[server].Server
		ro.used[server] = srv.PoolUsed()
		ro.pool[server] = srv.PoolGB()
	}
	return replays
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

// row returns request r's score row.
func (ro *Rollout) row(r int) []float64 {
	return ro.score[r*ro.ns : (r+1)*ro.ns]
}
