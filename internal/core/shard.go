package core

import (
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/memsim"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/timeseries"
)

// This file is one cluster shard's control plane, run by both the
// simulator and the serving layer (docs/DESIGN.md §9, "core.Shard: one
// shard, two clocks"). A Shard has no locks: internal/sim drives each one
// from a single goroutine, internal/serve under its shard mutex. What a
// layer keeps beside it (sim's demand records, serve's routes and
// utilization cursors) it updates from the operations' return values.

// ShardStats counts one shard's failure-domain and migration-landing
// outcomes.
type ShardStats struct {
	// Crashes and Recoveries count applied server fault events.
	Crashes    int
	Recoveries int
	// EvictedVMs counts VMs displaced by crashes; each was re-admitted in
	// the shard (ReplacedVMs) or had no feasible server left (LostVMs).
	EvictedVMs  int
	ReplacedVMs int
	LostVMs     int
	// Migration landings (docs/DESIGN.md §10) and the pre-copied volume
	// that arrived resident. Cross-shard ones count at the source shard.
	SameShardMigrations  int
	CrossShardMigrations int
	FailedMigrations     int
	WarmArrivedGB        float64
}

// Shard is one cluster's scheduler plus, when the data plane is on, the
// memory data plane and migration engine over the same servers. Sched is
// nil when the cluster has no servers; DP and Eng are nil unless the data
// plane is on. Scorer is the migration engine's what-if scorer, or a
// scheduler-only one without a data plane.
type Shard struct {
	Index  int
	Sched  *scheduler.Scheduler
	DP     *DataPlane
	Eng    *MigrationEngine
	Scorer *WhatIfScorer
	Stats  ShardStats
}

// NewShard builds shard index over servers. A nil dp leaves the data
// plane and migration engine off; an empty server list yields a shard
// with no scheduler.
func NewShard(index int, servers []*cluster.Server, w timeseries.Windows, dp *DataPlaneConfig, mc MigrationConfig) (*Shard, error) {
	s := &Shard{Index: index}
	if len(servers) == 0 {
		return s, nil
	}
	sched, err := scheduler.NewOverServers(servers, w)
	if err != nil {
		return nil, err
	}
	s.Sched = sched
	if dp == nil {
		s.Scorer = NewWhatIfScorer(sched, nil)
		return s, nil
	}
	if s.DP, err = NewDataPlane(*dp, servers); err != nil {
		return nil, err
	}
	if s.Eng, err = NewMigrationEngine(mc, index, sched, s.DP); err != nil {
		return nil, err
	}
	s.Scorer = s.Eng.Scorer()
	return s, nil
}

// Admit places cvm on the scheduler's best-fit server and attaches its
// memory there. It returns -1 when no server fits.
func (s *Shard) Admit(cvm *coachvm.CVM) (int, error) {
	srv, ok := s.Sched.Place(cvm)
	if !ok {
		return -1, nil
	}
	return srv, s.attach(cvm, srv)
}

// AdmitAt places cvm on server — a pick from the shard's scorer — and
// attaches its memory there. On error nothing changed.
func (s *Shard) AdmitAt(cvm *coachvm.CVM, server int) error {
	if err := s.Sched.PlaceAt(cvm, server); err != nil {
		return err
	}
	return s.attach(cvm, server)
}

// attach gives a just-placed CoachVM its memory (guaranteed portion as
// PA, the rest as VA), undoing the placement if the data plane refuses.
func (s *Shard) attach(cvm *coachvm.CVM, server int) error {
	if s.DP == nil {
		return nil
	}
	if err := s.DP.Attach(server, cvm.ID, cvm.Alloc[resources.Memory], cvm.Guaranteed[resources.Memory]); err != nil {
		s.Sched.Remove(cvm.ID)
		return err
	}
	return nil
}

// Release removes vmID from its server and detaches its memory, if any:
// a departure, or a cross-shard handoff letting go of a source or of a
// cancelled reservation. It reports false when the scheduler does not
// hold the VM.
func (s *Shard) Release(vmID int) bool {
	if s.Sched == nil {
		return false
	}
	if cvm, _ := s.Sched.Remove(vmID); cvm == nil {
		return false
	}
	if s.DP != nil {
		s.DP.Detach(vmID)
	}
	return true
}

// Eviction is one VM a crash displaced: its CoachVM and the server it was
// re-admitted to, or -1 when nothing in the shard could host it (lost).
type Eviction struct {
	VMID   int
	CVM    *coachvm.CVM
	Server int
}

// Crash fails server: its memory state is lost, the scheduler marks it
// down, and every VM it hosted is evicted in ascending id order and
// re-admitted — through the migration engine's pressure-aware
// RecoveryTarget with a data plane, the scheduler's best fit without —
// or lost. With a data plane only VMs whose memory is attached there are
// evicted: an in-flight cross-shard handoff's reservation has no memory
// yet and belongs to the handoff. Crashing a down server is a no-op.
func (s *Shard) Crash(server int) ([]Eviction, error) {
	if s.Sched == nil || server < 0 || server >= s.Sched.NumServers() || s.Sched.Down(server) {
		return nil, nil
	}
	s.Stats.Crashes++
	var ids []int
	if s.DP != nil {
		ids = s.DP.CrashServer(server)
	} else {
		ids = s.Sched.VMsOn(server)
	}
	s.Sched.SetDown(server, true)
	out := make([]Eviction, 0, len(ids))
	for _, id := range ids {
		cvm, _ := s.Sched.Remove(id)
		s.Stats.EvictedVMs++
		target := -1
		if s.Eng != nil {
			if target = s.Eng.RecoveryTarget(cvm); target >= 0 {
				if err := s.AdmitAt(cvm, target); err != nil {
					return out, err
				}
			}
		} else if srv, ok := s.Sched.Place(cvm); ok {
			target = srv
		}
		if target < 0 {
			s.Stats.LostVMs++
		} else {
			s.Stats.ReplacedVMs++
		}
		out = append(out, Eviction{VMID: id, CVM: cvm, Server: target})
	}
	return out, nil
}

// Recover returns a crashed server to service, empty. Recovering an up
// server is a no-op.
func (s *Shard) Recover(server int) {
	if s.Sched == nil || !s.Sched.Down(server) {
		return
	}
	s.Sched.SetDown(server, false)
	s.Stats.Recoveries++
}

// Tick advances the data plane one sample and lands the live migrations
// that completed, counting the plans; tick tags the cross-shard requests
// no same-shard server could take. The data plane must be on.
func (s *Shard) Tick(tick int) ([]*memsim.TickFrame, []MigrationPlan, []MigrationRequest, error) {
	frames, completed, err := s.DP.Tick(DataPlaneTickSeconds)
	if err != nil {
		return nil, nil, nil, err
	}
	plans, reqs, err := s.Eng.Resolve(tick, completed)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, p := range plans {
		s.Count(p)
	}
	return frames, plans, reqs, nil
}

// Settle lands a cross-shard request no other shard took back in this,
// its home shard (MigrationEngine.Settle), and counts the plan.
func (s *Shard) Settle(req MigrationRequest) (MigrationPlan, error) {
	p, err := s.Eng.Settle(req)
	if err != nil {
		return MigrationPlan{}, err
	}
	s.Count(p)
	return p, nil
}

// Count folds one landed migration into the shard's counters by kind:
// re-landed (failed), cross-shard (CommitInbound's plan, counted at the
// source), or same-shard.
func (s *Shard) Count(p MigrationPlan) {
	switch {
	case p.Relanded:
		s.Stats.FailedMigrations++
	case p.CrossShard:
		s.Stats.CrossShardMigrations++
	default:
		s.Stats.SameShardMigrations++
	}
	s.Stats.WarmArrivedGB += p.WarmGB
}
