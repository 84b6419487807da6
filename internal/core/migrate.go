package core

import (
	"fmt"

	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
)

// This file implements the unified live-migration engine (docs/DESIGN.md
// §10): one coordinator that lands completed live migrations by moving
// the scheduler's CVM bookkeeping and the VM's memory *together*, picks
// destinations through the scheduler's placement policy filtered by
// data-plane pool pressure, and models pre-copied pages arriving
// resident. Both the sharded simulator (internal/sim) and the serving
// layer (internal/serve) drive the same engine, so "where does a
// migrated VM land" has exactly one answer in the codebase. Migrations
// that cannot land in their home shard surface as MigrationRequests for
// the caller's cross-shard apply step.

// MigrationConfig parameterizes the migration engine.
type MigrationConfig struct {
	// DirtyFrac is the fraction of the working set dirtied after the
	// final pre-copy pass: it demand-faults at the target while the rest
	// arrives resident (§3.2 live migration; pre-copy converges to a
	// small dirty set).
	DirtyFrac float64
	// PressureFrac filters placement candidates: servers whose pool
	// occupancy is at or above this fraction are not migration targets —
	// landing a migrated working set on an already-pressured pool would
	// re-trigger the contention the migration was escaping.
	PressureFrac float64
	// CrossShard lets migrations that find no unpressured same-shard
	// target escape the shard: the engine emits a MigrationRequest for
	// the caller's inter-shard apply step instead of settling for a
	// pressured local server.
	CrossShard bool
}

// DefaultMigrationConfig returns the engine defaults: 20% of the working
// set re-dirtied during the final pre-copy round, targets accepted below
// 75% pool occupancy, same-shard only.
func DefaultMigrationConfig() MigrationConfig {
	return MigrationConfig{DirtyFrac: 0.2, PressureFrac: 0.75}
}

// MigrationPlan records one landed migration: where the VM's capacity
// bookkeeping and memory moved, and how much of its working set arrived
// resident.
type MigrationPlan struct {
	VMID int
	From int
	To   int
	// WarmGB is the pre-copied volume that arrived resident at the
	// target (no fault cost).
	WarmGB float64
	// Relanded is true when no feasible target existed anywhere and the
	// VM re-landed on its source server: a failed migration.
	Relanded bool
	// CrossShard is true for a plan CommitInbound landed in another shard
	// (From is then a server of the source shard).
	CrossShard bool
}

// MigrationRequest is a completed live migration that could not land in
// its home shard: the VM's scheduler bookkeeping is still on its source
// server (capacity stays reserved until a destination commits — the
// reserve side of the two-phase handoff), while its memory is in flight.
// The caller's apply step either commits it to another shard or hands it
// back to the source engine's Reland.
type MigrationRequest struct {
	VMID int
	// SrcShard and SrcServer locate the reservation to release on commit.
	SrcShard  int
	SrcServer int
	// Tick is the evaluation tick the migration completed on; the
	// inter-shard apply step sorts requests by (Tick, SrcShard, VMID) so
	// the exchange is deterministic for any worker count.
	Tick int
	// CVM is the placed CoachVM (guaranteed/oversubscribed split) to
	// re-place at the destination.
	CVM *coachvm.CVM
	// SizeGB, PAGB and WSS reproduce the memory shape at the target.
	SizeGB float64
	PAGB   float64
	WSS    float64
}

// MigrationEngine coordinates one shard's scheduler and data plane: it
// resolves the data plane's completed live migrations into placements.
type MigrationEngine struct {
	cfg    MigrationConfig
	shard  int
	sched  *scheduler.Scheduler
	dp     *DataPlane
	scorer *WhatIfScorer
}

// NewMigrationEngine builds the engine for one shard. sched and dp must
// cover the same server slice in the same order.
func NewMigrationEngine(cfg MigrationConfig, shard int, sched *scheduler.Scheduler, dp *DataPlane) (*MigrationEngine, error) {
	if cfg.DirtyFrac < 0 || cfg.DirtyFrac > 1 {
		return nil, fmt.Errorf("core: dirty fraction %g outside [0,1]", cfg.DirtyFrac)
	}
	if cfg.PressureFrac <= 0 || cfg.PressureFrac > 1 {
		return nil, fmt.Errorf("core: pressure fraction %g outside (0,1]", cfg.PressureFrac)
	}
	if sched == nil || dp == nil {
		return nil, fmt.Errorf("core: migration engine needs both a scheduler and a data plane")
	}
	if len(sched.Servers()) != len(dp.Servers()) {
		return nil, fmt.Errorf("core: scheduler covers %d servers, data plane %d",
			len(sched.Servers()), len(dp.Servers()))
	}
	e := &MigrationEngine{cfg: cfg, shard: shard, sched: sched, dp: dp}
	e.scorer = NewWhatIfScorer(sched, dp)
	return e, nil
}

// Scorer exposes the engine's what-if scorer so the layer driving the
// engine (sim shard, serve shard) can share one scratch — and one set of
// batching counters — across every decision on the shard.
func (e *MigrationEngine) Scorer() *WhatIfScorer { return e.scorer }

// VAPeakGB is the pool demand a CoachVM brings to a target server: the
// peak over time windows of its scheduled oversubscribed memory demand.
// Migration targeting projects this — not the instantaneous working-set
// spillover, which is often near zero right after a long pre-copy while
// the VM is cool — onto candidate pools, so a VM whose allocator-promised
// VA demand no pool can absorb is not bounced from one thrashing pool to
// the next.
func VAPeakGB(cvm *coachvm.CVM) float64 {
	var m float64
	for _, d := range cvm.VADemand[resources.Memory] {
		if d > m {
			m = d
		}
	}
	return m
}

// VANeed is the incoming pool demand of a cross-shard request.
func (r MigrationRequest) VANeed() float64 { return VAPeakGB(r.CVM) }

// Before is the order every cross-shard apply step (the simulator's
// exchange, serve's handoffs) walks requests in: by (Tick, SrcShard,
// VMID), so the outcome never depends on which shard resolved first.
func (r MigrationRequest) Before(o MigrationRequest) bool {
	if r.Tick != o.Tick {
		return r.Tick < o.Tick
	}
	if r.SrcShard != o.SrcShard {
		return r.SrcShard < o.SrcShard
	}
	return r.VMID < o.VMID
}

// Resolve lands the completed migrations of one Tick. Same-shard
// landings move the scheduler's capacity bookkeeping and the VM's memory
// together (scheduler.MigrateTo + AttachMigrated). When no same-shard
// server clears the pressure filter, the outcome depends on CrossShard:
// enabled, the migration becomes a MigrationRequest (bookkeeping stays
// reserved at the source until the apply step commits or relands it);
// disabled, the engine falls back to the least-pressured feasible server,
// or re-lands the VM on its source when nothing in the shard fits.
// tick tags emitted requests for deterministic cross-shard ordering.
func (e *MigrationEngine) Resolve(tick int, completed []CompletedMigration) ([]MigrationPlan, []MigrationRequest, error) {
	var plans []MigrationPlan
	var reqs []MigrationRequest
	for _, cm := range completed {
		cvm := e.sched.CVM(cm.VMID)
		if cvm == nil || e.sched.ServerOf(cm.VMID) != cm.Server {
			// The scheduler no longer holds this VM on that server: it
			// was released mid-migration. Its memory has nowhere to live;
			// drop it rather than re-attach an unowned VMMem.
			continue
		}
		ro := e.scorer.Score(cvm, VAPeakGB(cvm))
		if target := ro.Pick(cm.Server, e.cfg.PressureFrac); target >= 0 {
			plan, err := e.commitLocal(cm, target)
			if err != nil {
				return nil, nil, err
			}
			plans = append(plans, plan)
			continue
		}
		if e.cfg.CrossShard {
			reqs = append(reqs, MigrationRequest{
				VMID:      cm.VMID,
				SrcShard:  e.shard,
				SrcServer: cm.Server,
				Tick:      tick,
				CVM:       cvm,
				SizeGB:    cm.SizeGB,
				PAGB:      cm.PAGB,
				WSS:       cm.WSS,
			})
			continue
		}
		// Nothing changed since the pressured pick: its row serves the
		// fallback too.
		plan, err := e.settle(cm, ro.LeastPressured(cm.Server))
		if err != nil {
			return nil, nil, err
		}
		plans = append(plans, plan)
	}
	return plans, reqs, nil
}

// settle is the same-shard-only fallback when every feasible server is
// pressured: land on target, the least-pressured one, or re-land on the
// source when nothing fits (target < 0).
func (e *MigrationEngine) settle(cm CompletedMigration, target int) (MigrationPlan, error) {
	if target < 0 {
		return e.Reland(cm)
	}
	return e.commitLocal(cm, target)
}

// commitLocal moves bookkeeping and memory to a same-shard target.
func (e *MigrationEngine) commitLocal(cm CompletedMigration, target int) (MigrationPlan, error) {
	if err := e.sched.MigrateTo(cm.VMID, target); err != nil {
		return MigrationPlan{}, fmt.Errorf("core: landing migrated vm %d: %w", cm.VMID, err)
	}
	warm, err := e.dp.AttachMigrated(target, cm.VMID, cm.SizeGB, cm.PAGB, cm.WSS, e.cfg.DirtyFrac)
	if err != nil {
		return MigrationPlan{}, err
	}
	return MigrationPlan{VMID: cm.VMID, From: cm.Server, To: target, WarmGB: warm}, nil
}

// The methods below are the cross-shard handoff protocol, driven by the
// caller that can see multiple shards (the simulator's sample-boundary
// exchange, serve's TickDataPlane). The destination engine runs
// PickInbound → Reserve → CommitInbound; the source shard releases the VM
// (Shard.Release) after the reservation holds (two-phase: capacity is
// reserved at the destination before the source lets go, so a crashed
// handoff never strands the VM without capacity anywhere), and a
// cancelled handoff releases the reservation the same way. Settle and
// Reland are the declined paths.

// PickInbound picks this shard's server for an inbound cross-shard
// request: the best fit whose pool absorbs the incoming working set below
// the pressure bar, with its packing score so the caller can compare
// shards (ok=false when no server qualifies).
func (e *MigrationEngine) PickInbound(req MigrationRequest) (server int, score float64, ok bool) {
	ro := e.scorer.Score(req.CVM, req.VANeed())
	if server = ro.Pick(-1, e.cfg.PressureFrac); server < 0 {
		return -1, 0, false
	}
	return server, ro.score[server], true
}

// Reserve places the request's CoachVM on an explicit server in this
// shard's scheduler — the reservation phase. Memory is not attached yet.
func (e *MigrationEngine) Reserve(req MigrationRequest, target int) error {
	return e.sched.PlaceAt(req.CVM, target)
}

// CommitInbound attaches the request's memory to the reserved server,
// pre-copied pages arriving resident — the commit phase.
func (e *MigrationEngine) CommitInbound(req MigrationRequest, target int) (MigrationPlan, error) {
	warm, err := e.dp.AttachMigrated(target, req.VMID, req.SizeGB, req.PAGB, req.WSS, e.cfg.DirtyFrac)
	if err != nil {
		return MigrationPlan{}, err
	}
	return MigrationPlan{VMID: req.VMID, From: req.SrcServer, To: target, WarmGB: warm, CrossShard: true}, nil
}

// Settle lands a declined cross-shard request back in its home shard:
// the least-pressured feasible server, or a warm re-land on the source
// when nothing in the shard fits — exactly the CrossShard=false
// fallback, applied after the fact.
func (e *MigrationEngine) Settle(req MigrationRequest) (MigrationPlan, error) {
	cm := CompletedMigration{
		VMID:   req.VMID,
		Server: req.SrcServer,
		SizeGB: req.SizeGB,
		PAGB:   req.PAGB,
		WSS:    req.WSS,
	}
	cvm := e.sched.CVM(req.VMID)
	if cvm == nil {
		return MigrationPlan{}, fmt.Errorf("core: settling unknown vm %d", req.VMID)
	}
	return e.settle(cm, e.scorer.Score(cvm, 0).LeastPressured(req.SrcServer))
}

// RecoveryTarget returns the server a crash-evicted VM re-admits to, or -1
// when nothing in the shard can host it and the VM is lost: the
// pressure-filtered best fit, else the least-pressured feasible server —
// after a server failure the fleet is short capacity, so a
// pressured-but-feasible home beats losing the VM. One score row serves
// both.
func (e *MigrationEngine) RecoveryTarget(cvm *coachvm.CVM) int {
	ro := e.scorer.Score(cvm, VAPeakGB(cvm))
	if target := ro.Pick(-1, e.cfg.PressureFrac); target >= 0 {
		return target
	}
	return ro.LeastPressured(-1)
}

// Reland puts a migration's memory back on its source server, fully warm
// — the failure path when no destination anywhere could take the VM. The
// scheduler bookkeeping never moved, so only the memory re-attaches. The
// cross-shard apply step also calls it when every other shard declines a
// MigrationRequest.
func (e *MigrationEngine) Reland(cm CompletedMigration) (MigrationPlan, error) {
	warm, err := e.dp.AttachMigrated(cm.Server, cm.VMID, cm.SizeGB, cm.PAGB, cm.WSS, 0)
	if err != nil {
		return MigrationPlan{}, err
	}
	return MigrationPlan{VMID: cm.VMID, From: cm.Server, To: cm.Server, WarmGB: warm, Relanded: true}, nil
}
