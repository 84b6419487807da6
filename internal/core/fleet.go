package core

import (
	"fmt"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

// This file is the one fleet configuration the simulator and the serving
// layer both build their shards from (docs/DESIGN.md §9, "One fleet
// configuration"): sim.Config and serve.Config embed FleetConfig, so the
// policy, the training split, the data plane and the migration engine are
// declared, validated and derived once, and the cross-shard pick both
// layers run is BestInbound.

// FleetConfig is the configuration the offline replay and the online
// control plane share.
type FleetConfig struct {
	// ClusterConfig is the policy block: Policy, Windows, Percentile and
	// LongTerm (whose Windows/Percentile TrainConfig overrides).
	ClusterConfig
	// TrainUpTo is the trace sample separating the model's training
	// period from the evaluated or served one.
	TrainUpTo int
	// DataPlane enables the per-server memory data plane: every fleet
	// server runs a memsim server plus oversubscription agent, and each
	// shard gets a migration engine over it. See docs/DESIGN.md §9.
	DataPlane bool
	// MitigationPolicy and MitigationMode configure the per-server agents
	// when DataPlane is set (§4.4: None/Trim/Extend/Migrate, reactive or
	// proactive).
	MitigationPolicy agent.Policy
	MitigationMode   agent.Mode
	// DataPlanePoolFrac and DataPlaneUnallocFrac override the per-server
	// pool sizing (fractions of memory capacity; 0 = the
	// DefaultDataPlaneConfig defaults). Experiments shrink the pool to
	// provoke the contention the mitigation ladder resolves.
	DataPlanePoolFrac    float64
	DataPlaneUnallocFrac float64
	// CrossShardMigration lets completed live migrations that find no
	// unpressured server in their home cluster land in another one:
	// through the simulator's sample-boundary exchange, or serve's
	// two-phase handoff. Requires DataPlane; ignored on a one-cluster
	// fleet. See docs/DESIGN.md §10.
	CrossShardMigration bool
	// Faults optionally supplies a compiled fault schedule (internal/
	// fault), the same one in both layers for one spec. See
	// docs/DESIGN.md §13.
	Faults *fault.Schedule
}

// FleetConfigForPolicy returns the deployed configuration under one of
// the Fig. 20 policies: AggrCoach guarantees the P50, every other policy
// the P95 (§4.3).
func FleetConfigForPolicy(p scheduler.PolicyKind) FleetConfig {
	c := FleetConfig{ClusterConfig: DefaultClusterConfig()}
	c.Policy = p
	if p == scheduler.PolicyAggrCoach {
		c.Percentile = 50
	}
	return c
}

// WithDefaults fills a zero Windows or Percentile with the deployed 6x4h
// split and P95.
func (c ClusterConfig) WithDefaults() ClusterConfig {
	d := DefaultClusterConfig()
	if c.Percentile == 0 {
		c.Percentile = d.Percentile
	}
	if c.Windows.PerDay == 0 {
		c.Windows = d.Windows
	}
	return c
}

// TrainConfig is the predictor training configuration: LongTerm with the
// policy block's Windows and Percentile.
func (c ClusterConfig) TrainConfig() predict.LongTermConfig {
	lt := c.LongTerm
	lt.Windows = c.Windows
	lt.Percentile = c.Percentile
	return lt
}

// NewShards validates the configuration against tr and fleet and builds
// one Shard per cluster: the scheduler, plus the data plane and migration
// engine when DataPlane is set. A VM id must be its index in tr.VMs.
func (c FleetConfig) NewShards(tr *trace.Trace, fleet *cluster.Fleet) ([]*Shard, error) {
	if err := c.Windows.Validate(); err != nil {
		return nil, err
	}
	if c.TrainUpTo <= 0 || c.TrainUpTo >= tr.Horizon {
		return nil, fmt.Errorf("core: TrainUpTo %d outside (0,%d)", c.TrainUpTo, tr.Horizon)
	}
	if err := tr.CheckIDsAreIndices(); err != nil {
		return nil, err
	}
	if fleet.NumClusters() == 0 {
		return nil, fmt.Errorf("core: fleet has no clusters")
	}
	if err := fleet.Validate(); err != nil {
		return nil, err
	}
	var dp *DataPlaneConfig
	if c.DataPlane {
		d := DefaultDataPlaneConfig()
		d.Agent.Policy, d.Agent.Mode = c.MitigationPolicy, c.MitigationMode
		if c.DataPlanePoolFrac > 0 {
			d.PoolFrac = c.DataPlanePoolFrac
		}
		if c.DataPlaneUnallocFrac > 0 {
			d.UnallocFrac = c.DataPlaneUnallocFrac
		}
		dp = &d
	}
	groups := fleet.Shards()
	mc := DefaultMigrationConfig()
	// A lone shard has nowhere to escape to: emitting undeliverable
	// requests would only defer the same-shard fallback.
	mc.CrossShard = c.CrossShardMigration && len(groups) > 1
	shards := make([]*Shard, len(groups))
	for i, servers := range groups {
		sh, err := NewShard(i, servers, c.Windows, dp, mc)
		if err != nil {
			return nil, err
		}
		shards[i] = sh
	}
	return shards, nil
}

// BestInbound is the one cross-shard pick: the best PickInbound over
// every shard with a migration engine but the request's source, strict >
// so score ties go to the lowest index. It returns shard -1 when no shard
// takes the request; the caller then settles it home. visit, when
// non-nil, wraps each destination's pick (serve passes its shard lock).
func BestInbound(shards []*Shard, req MigrationRequest, visit func(i int, pick func())) (shard, server int) {
	shard, server = -1, -1
	var best float64
	var j int
	pick := func() {
		if srv, score, ok := shards[j].Eng.PickInbound(req); ok && (shard < 0 || score > best) {
			shard, server, best = j, srv, score
		}
	}
	for j = range shards {
		if j == req.SrcShard || shards[j].Eng == nil {
			continue
		}
		if visit == nil {
			pick()
		} else {
			visit(j, pick)
		}
	}
	return shard, server
}
