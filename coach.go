// Package coach is the public API of the Coach reproduction: a system for
// all-resource oversubscription in cloud platforms that exploits temporal
// utilization patterns (Reidys et al., ASPLOS '25).
//
// The package is a facade over the internal implementation:
//
//   - GenerateTrace synthesizes an Azure-like VM trace (the substitute for
//     the paper's production telemetry).
//   - NewPlatform builds the Coach control plane — prediction model,
//     time-window scheduler and oversubscription policy — over a fleet.
//   - Simulate replays a trace against a fleet under a policy and reports
//     capacity and violations (the paper's §4.3 evaluation).
//   - RunExperiment regenerates any table or figure of the paper.
//
// See the runnable programs under examples/ for end-to-end usage.
package coach

import (
	"io"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/experiments"
	"github.com/coach-oss/coach/internal/report"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/sim"
	"github.com/coach-oss/coach/internal/trace"
)

// Resource kind constants.
const (
	CPU     = resources.CPU
	Memory  = resources.Memory
	Network = resources.Network
	SSD     = resources.SSD
)

// Traces.
type (
	// Trace is a VM telemetry trace (allocations plus 5-minute
	// utilization series).
	Trace = trace.Trace
	// VM is one trace record.
	VM = trace.VM
	// TraceConfig is a declarative workload spec: client classes,
	// arrival processes, lifetimes, seasonality and surges.
	TraceConfig = scenario.Spec
)

// DefaultTraceConfig returns the capacity preset: a 2-week, 10-cluster
// mix of resident, daily, batch and test VMs.
func DefaultTraceConfig() *TraceConfig {
	sp, err := scenario.Preset("capacity")
	if err != nil {
		panic(err)
	}
	return sp
}

// GenerateTrace synthesizes a trace with the paper's §2 distributional
// properties. The same config always produces the same trace; its VM
// count is drawn around cfg.VMs.
func GenerateTrace(cfg *TraceConfig) (*Trace, error) { return trace.GenerateScenario(cfg) }

// LoadTrace reads a trace previously written with Trace.Save.
func LoadTrace(r io.Reader) (*Trace, error) { return trace.Load(r) }

// Fleet and clusters.
type (
	// Fleet is a server inventory grouped into clusters.
	Fleet = cluster.Fleet
	// ClusterSpec describes one cluster's hardware and server count.
	ClusterSpec = cluster.Config
)

// DefaultClusters returns the ten-cluster fleet configuration (C1-C10)
// with the given servers per cluster.
func DefaultClusters(serversPer int) []ClusterSpec { return cluster.DefaultClusters(serversPer) }

// NewFleet materializes cluster specs into a fleet.
func NewFleet(specs []ClusterSpec) *Fleet { return cluster.NewFleet(specs) }

// Policies.
type PolicyKind = scheduler.PolicyKind

// Oversubscription policies (Fig. 20).
const (
	PolicyNone      = scheduler.PolicyNone
	PolicySingle    = scheduler.PolicySingle
	PolicyCoach     = scheduler.PolicyCoach
	PolicyAggrCoach = scheduler.PolicyAggrCoach
)

// Platform is the Coach control plane over a fleet.
type (
	Platform       = core.ClusterManager
	PlatformConfig = core.ClusterConfig
)

// DefaultPlatformConfig returns the deployed configuration: Coach policy,
// 6x4h windows, P95.
func DefaultPlatformConfig() PlatformConfig { return core.DefaultClusterConfig() }

// NewPlatform builds the control plane over a fleet.
func NewPlatform(fleet *Fleet, cfg PlatformConfig) (*Platform, error) {
	return core.NewClusterManager(fleet, cfg)
}

// MitigationPolicy selects None/Trim/Extend/Migrate.
type MitigationPolicy = agent.Policy

// Mitigation policy and mode constants (§3.4, §4.4).
const (
	MitigateNone    = agent.PolicyNone
	MitigateTrim    = agent.PolicyTrim
	MitigateExtend  = agent.PolicyExtend
	MitigateMigrate = agent.PolicyMigrate
	Reactive        = agent.Reactive
	Proactive       = agent.Proactive
)

// Cluster-scale simulation.
type (
	// SimConfig parameterizes a cluster simulation run. Its Workers
	// field bounds the replay's workers: at most min(Workers,
	// GOMAXPROCS, shards), 0 = GOMAXPROCS; the Result is identical for
	// any value. Setting DataPlane runs the per-server memory data plane
	// (memsim + oversubscription agent) during replay under
	// MitigationPolicy / MitigationMode; CrossShardMigration additionally
	// lets completed live migrations re-home across cluster shards
	// through the deterministic sample-boundary exchange
	// (docs/DESIGN.md §10).
	SimConfig = sim.Config
	// SimResult summarizes capacity and violations; its DataPlane field
	// (non-nil when SimConfig.DataPlane is set) aggregates fleet-wide
	// mitigation metrics.
	SimResult = sim.Result
)

// SimConfigForPolicy returns the §4.3 configuration for a policy.
func SimConfigForPolicy(p PolicyKind) SimConfig { return sim.ConfigForPolicy(p) }

// Simulate replays tr against fleet under cfg. The fleet is partitioned
// into one independent shard per cluster and shards replay concurrently
// on min(Workers, GOMAXPROCS, shards) workers (see SimConfig.Workers);
// per-shard results merge deterministically, so the Result is
// byte-identical for any worker count.
func Simulate(tr *Trace, fleet *Fleet, cfg SimConfig) (*SimResult, error) {
	return sim.Run(tr, fleet, cfg)
}

// Table is a printable experiment result.
type Table = report.Table

// RunExperiment regenerates one table/figure at the given scale
// ("small", "medium" or "full").
func RunExperiment(id, scale string) ([]*Table, error) {
	s, err := experiments.ParseScale(scale)
	if err != nil {
		return nil, err
	}
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(experiments.NewContext(s, nil))
}
