package core

import (
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/scheduler"
)

// WhatIfScorer answers the placement question every control-plane
// decision asks — "admit/migrate/recover VM X onto which of K servers" —
// as one Rollout (docs/DESIGN.md §14): one dense score row per VM
// (scheduler.ScoreRowInto) plus one pool-state sweep
// (DataPlane.PoolStatesInto), read by one best-fit pick (Rollout.Pick) and
// one least-pressured fallback (Rollout.LeastPressured). Admission scores
// a whole batch at once (ScoreMany); a single-VM decision — migration
// landing, cross-shard inbound, crash recovery — is a one-row rollout, so
// every layer makes the same decision over the same representation.
//
// The scorer owns one live rollout, and single-VM decisions reuse that
// scratch: a new rollout invalidates the previous one. That is safe
// because a scorer belongs to one shard and every caller holds that
// shard's lock (serve) or is the shard's only goroutine (sim), and
// serve's admitBatch makes no single-VM decision while its batch rollout
// is live. The scorer is not internally synchronized.
type WhatIfScorer struct {
	sched *scheduler.Scheduler
	dp    *DataPlane

	rollout Rollout
	// one and oneNeed back single-VM rollouts, so they allocate nothing.
	one     [1]*coachvm.CVM
	oneNeed [1]float64

	batches int64 // rollouts built
	scored  int64 // feasible cells scored across rollouts and commits
}

// WhatIfStats counts the scorer's work: Batches rollouts (pool sweeps)
// covering Scored feasible (VM, server) cells in total. Every decision
// builds exactly one rollout however many servers the fleet offers — the
// call-count tests in serve and core assert exactly that.
type WhatIfStats struct {
	Batches int64
	Scored  int64
}

// NewWhatIfScorer builds a scorer over one shard's scheduler and data
// plane (the same pair a MigrationEngine coordinates); dp may be nil.
func NewWhatIfScorer(sched *scheduler.Scheduler, dp *DataPlane) *WhatIfScorer {
	return &WhatIfScorer{sched: sched, dp: dp}
}

// Stats returns the scorer's cumulative counters.
func (w *WhatIfScorer) Stats() WhatIfStats {
	return WhatIfStats{Batches: w.batches, Scored: w.scored}
}

// scoreOne is the single-VM decision's rollout: ScoreMany over one CVM
// whose incoming pool demand is needGB. Read it as row 0.
func (w *WhatIfScorer) scoreOne(cvm *coachvm.CVM, needGB float64) *Rollout {
	w.one[0], w.oneNeed[0] = cvm, needGB
	return w.ScoreMany(w.one[:], w.oneNeed[:])
}
