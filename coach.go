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
//   - NewServer builds a single oversubscribed server: the hypervisor
//     memory model plus the monitoring/prediction/mitigation agent.
//   - Simulate replays a trace against a fleet under a policy and reports
//     capacity and violations (the paper's §4.3 evaluation).
//   - RunExperiment regenerates any table or figure of the paper.
//   - NewService builds the online serving entry point: a long-running,
//     concurrency-safe prediction-and-admission service with batched
//     forest inference and per-cluster sharded fleet state, exposed over
//     HTTP by cmd/coachd (see docs/api.md).
//
// See the runnable programs under examples/ for end-to-end usage.
package coach

import (
	"io"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/experiments"
	"github.com/coach-oss/coach/internal/memsim"
	"github.com/coach-oss/coach/internal/report"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/serve"
	"github.com/coach-oss/coach/internal/sim"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
	"github.com/coach-oss/coach/internal/workload"
)

// Resource kinds and vectors.
type (
	// ResourceKind identifies CPU, Memory, Network or SSD.
	ResourceKind = resources.Kind
	// ResourceVector holds one amount per resource kind.
	ResourceVector = resources.Vector
)

// Resource kind constants.
const (
	CPU     = resources.CPU
	Memory  = resources.Memory
	Network = resources.Network
	SSD     = resources.SSD
)

// NewResourceVector builds a vector from cores, GB, Gbps and GB of SSD.
func NewResourceVector(cpu, memoryGB, networkGbps, ssdGB float64) ResourceVector {
	return resources.NewVector(cpu, memoryGB, networkGbps, ssdGB)
}

// Traces.
type (
	// Trace is a VM telemetry trace (allocations plus 5-minute
	// utilization series).
	Trace = trace.Trace
	// VM is one trace record.
	VM = trace.VM
	// TraceConfig parameterizes the synthetic generator.
	TraceConfig = trace.GenConfig
)

// DefaultTraceConfig returns the calibrated 2-week, 10-cluster default.
func DefaultTraceConfig() TraceConfig { return trace.DefaultGenConfig() }

// GenerateTrace synthesizes a trace with the paper's §2 distributional
// properties. The same config always produces the same trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// LoadTrace reads a trace previously written with Trace.Save.
func LoadTrace(r io.Reader) (*Trace, error) { return trace.Load(r) }

// Time windows.
type Windows = timeseries.Windows

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

// CoachVM building blocks.
type (
	// CoachVM is a VM with guaranteed and oversubscribed resource
	// portions (the paper's CVM).
	CoachVM = coachvm.CVM
	// Prediction holds per-time-window utilization predictions.
	Prediction = coachvm.Prediction
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

// Server-level simulation.
type (
	// Server is one oversubscribed host: hypervisor memory model plus
	// oversubscription agent.
	Server = core.ServerManager
	// ServerConfig parameterizes it.
	ServerConfig = core.ServerConfig
	// VMMemory is the per-VM memory state on a server.
	VMMemory = memsim.VMMem
	// MemoryTickStats reports one VM's per-tick memory behaviour.
	MemoryTickStats = memsim.TickStats
	// MemoryTickFrame is one tick's per-VM stats in deterministic
	// (ascending VM id) order, returned by Server.Tick; the server owns
	// and reuses it across ticks.
	MemoryTickFrame = memsim.TickFrame
	// MemoryTotals are a server's cumulative mitigation and paging
	// volumes (trimmed/extended/migrated/faulted/stolen GB).
	MemoryTotals = memsim.Totals
	// MitigationPolicy selects None/Trim/Extend/Migrate.
	MitigationPolicy = agent.Policy
	// MitigationMode selects Reactive or Proactive.
	MitigationMode = agent.Mode
	// MigrationConfig parameterizes the unified live-migration engine
	// (docs/DESIGN.md §10): the pre-copy dirty fraction that
	// demand-faults at the target, the projected pool occupancy above
	// which a server is not a migration target, and whether migrations
	// may land cross-shard. The simulator and coachd run the default
	// fractions and set only CrossShardMigration on their configs.
	MigrationConfig = core.MigrationConfig
	// MigrationPlan records one landed migration: source and destination
	// servers (capacity bookkeeping and memory move together), the
	// pre-copied volume that arrived resident, and whether the VM
	// re-landed on its source because nothing could take it.
	MigrationPlan = core.MigrationPlan
)

// Mitigation policy and mode constants (§3.4, §4.4).
const (
	MitigateNone    = agent.PolicyNone
	MitigateTrim    = agent.PolicyTrim
	MitigateExtend  = agent.PolicyExtend
	MitigateMigrate = agent.PolicyMigrate
	Reactive        = agent.Reactive
	Proactive       = agent.Proactive
)

// DefaultServerConfig returns a server with the default hardware model and
// a reactive trim-only agent.
func DefaultServerConfig(poolGB, unallocGB float64) ServerConfig {
	return core.DefaultServerConfig(poolGB, unallocGB)
}

// DefaultMigrationConfig returns the migration engine defaults: a 20%
// pre-copy dirty fraction and a 75% projected-occupancy pressure bar,
// same-shard only.
func DefaultMigrationConfig() MigrationConfig { return core.DefaultMigrationConfig() }

// NewServer builds a single oversubscribed server.
func NewServer(cfg ServerConfig) (*Server, error) { return core.NewServerManager(cfg) }

// NewVMMemory creates the memory state for a VM of sizeGB with a paGB
// guaranteed (PA-backed) portion; the remainder is oversubscribed VA.
func NewVMMemory(id int, sizeGB, paGB float64) (*VMMemory, error) {
	return memsim.NewVMMem(id, sizeGB, paGB)
}

// Workloads.
type (
	// Workload describes one Table-2 application model.
	Workload = workload.Spec
	// WorkloadRunner drives a workload against a server VM.
	WorkloadRunner = workload.Runner
)

// Workloads returns the paper's Table 2 suite.
func Workloads() []Workload { return workload.Table2() }

// WorkloadByName looks up one Table 2 entry.
func WorkloadByName(name string) (Workload, error) { return workload.SpecByName(name) }

// NewWorkloadRunner attaches a workload to a VM's memory state.
func NewWorkloadRunner(spec Workload, vm *VMMemory, cfg memsim.Config) (*WorkloadRunner, error) {
	return workload.NewRunner(spec, vm, cfg)
}

// Cluster-scale simulation.
type (
	// SimConfig parameterizes a cluster simulation run. Its Workers
	// field bounds how many cluster shards replay concurrently
	// (0 = GOMAXPROCS); the Result is identical for any value. Setting
	// DataPlane runs the per-server memory data plane (memsim +
	// oversubscription agent) during replay under MitigationPolicy /
	// MitigationMode; CrossShardMigration additionally lets completed
	// live migrations re-home across cluster shards through the
	// deterministic sample-boundary exchange (docs/DESIGN.md §10).
	SimConfig = sim.Config
	// SimResult summarizes capacity and violations; its DataPlane field
	// (non-nil when SimConfig.DataPlane is set) aggregates fleet-wide
	// mitigation metrics.
	SimResult = sim.Result
	// DataPlaneResult aggregates the fleet-wide memory data plane of one
	// simulation run: mitigation and paging volumes, agent counters and
	// the access-latency distribution.
	DataPlaneResult = sim.DataPlaneResult
)

// SimConfigForPolicy returns the §4.3 configuration for a policy.
func SimConfigForPolicy(p PolicyKind) SimConfig { return sim.ConfigForPolicy(p) }

// Simulate replays tr against fleet under cfg. The fleet is partitioned
// into one independent shard per cluster and shards replay concurrently
// on a worker pool (see SimConfig.Workers); per-shard results merge
// deterministically, so the Result is byte-identical for any worker
// count.
func Simulate(tr *Trace, fleet *Fleet, cfg SimConfig) (*SimResult, error) {
	return sim.Run(tr, fleet, cfg)
}

// Experiments.
type (
	// Table is a printable experiment result.
	Table = report.Table
	// ExperimentInfo describes one registered experiment.
	ExperimentInfo struct {
		ID         string
		Title      string
		PaperClaim string
	}
)

// Experiments lists every registered table/figure experiment.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range experiments.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title, PaperClaim: e.PaperClaim})
	}
	return out
}

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
	return e.Run(experiments.NewContext(s))
}

// DefaultMemoryConfig returns the hardware parameters of the simulated
// server (latencies, bandwidths).
func DefaultMemoryConfig() memsim.Config { return memsim.DefaultConfig() }

// Serving.
type (
	// Service is the online prediction-and-admission server: the
	// long-term predictor, time-window scheduler and CoachVM shaping
	// behind a concurrency-safe API with batched inference. cmd/coachd
	// serves it over HTTP (see docs/api.md); Service.Handler exposes the
	// same API for embedding.
	Service = serve.Service
	// ServiceConfig parameterizes a Service: policy, windows, percentile,
	// the data plane and the shared trained-model cache.
	ServiceConfig = serve.Config
	// ModelCache memoizes trained predictors by (trace, config) so cold
	// starts pay forest training once; share one across Services to reuse
	// models.
	ModelCache = serve.ModelCache
	// AdmitResult reports one admission decision.
	AdmitResult = serve.AdmitResult
	// ServiceStats snapshots admission counters, request counts,
	// model-cache behaviour and the fleet data plane.
	ServiceStats = serve.Stats
	// ServiceDataPlaneStats aggregates the serving fleet's memory data
	// plane (pool occupancy, mitigation and paging volumes); enabled via
	// ServiceConfig.DataPlane and advanced by Service.TickDataPlane.
	ServiceDataPlaneStats = serve.DataPlaneStats
)

// NewModelCache returns an empty trained-model cache for sharing across
// services.
func NewModelCache() *ModelCache { return serve.NewModelCache() }

// DefaultServiceConfig returns the deployed serving configuration: Coach
// policy, 6x4h windows, P95.
func DefaultServiceConfig() ServiceConfig { return serve.DefaultConfig() }

// NewService builds a prediction-and-admission service over a trace and a
// fleet. The model trains lazily through the config's cache on the first
// prediction (or Service.Warm); Close rejects further requests.
func NewService(tr *Trace, fleet *Fleet, cfg ServiceConfig) (*Service, error) {
	return serve.New(tr, fleet, cfg)
}
