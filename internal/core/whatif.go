package core

import (
	"github.com/coach-oss/coach/internal/scheduler"
)

// WhatIfScorer answers the placement question every control-plane
// decision asks — "admit/migrate/recover VM X onto which of K servers" —
// as one Rollout (docs/DESIGN.md §14): one dense score row per VM
// (scheduler.ScoreRowInto) plus one pool-state sweep
// (DataPlane.PoolStatesInto), read by one best-fit pick (Rollout.Pick) and
// one least-pressured fallback (Rollout.LeastPressured). Admission,
// migration landing, cross-shard inbound and crash recovery all build the
// same one-row rollout (Score), so every layer makes the same decision
// over the same representation.
//
// The scorer owns one live rollout: a new rollout invalidates the
// previous one. That is safe because a scorer belongs to one shard and
// every caller holds that shard's lock (serve) or is the shard's only
// goroutine (sim). The scorer is not internally synchronized.
type WhatIfScorer struct {
	sched *scheduler.Scheduler
	dp    *DataPlane

	rollout Rollout

	batches int64 // rollouts built
	scored  int64 // feasible cells scored across rollouts
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
