// Package sim is the cluster-scale simulator of §4.1: it replays a VM
// trace against a fleet, runs the production-style scheduler extended with
// Coach's time-window policy, and accounts capacity and contention.
//
// The paper's simulator "assigns VMs to servers by executing the real
// production VM scheduler code on the production VM traces ... Based on
// the VM placements of the simulator, we simulate the resource utilization
// for each server using the 5-minute data and estimate the contention."
// This package follows the same structure with our reimplemented
// scheduler and synthetic traces.
//
// The engine is sharded: the fleet is partitioned by cluster, each VM's
// event stream is routed to its home cluster's shard, and shards replay
// concurrently on a bounded worker pool (Config.Workers) with incremental
// per-server demand accounting inside each shard. Results merge
// deterministically, so output is independent of the worker count. See
// docs/DESIGN.md §6.
package sim

import (
	"fmt"
	"sort"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/par"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

// Config parameterizes one simulation run. The embedded FleetConfig is
// the block serve.Config shares (policy, training split, data plane,
// cross-shard migration, faults); core.FleetConfig.NewShards validates it
// and builds the shards both layers replay.
type Config struct {
	core.FleetConfig
	// Workers bounds how many goroutines replay cluster shards and run
	// the arrival and judging phases around the replay. 0 (the default)
	// uses runtime.GOMAXPROCS(0); 1 runs everything serially.
	// The merged Result is byte-identical for any value.
	Workers int
	// Model optionally supplies a pre-trained long-term predictor to
	// reuse across runs (it must have been trained on the same trace up
	// to TrainUpTo with TrainConfig()). When nil, Run trains its own
	// unless Policy is PolicyNone.
	Model *predict.LongTerm
	// Scenario, when non-nil, is a declarative workload spec. Run called
	// with a nil trace generates it from the scenario
	// (trace.GenerateScenario), and a zero TrainUpTo then defaults to
	// half the spec's horizon. When both a trace and a Scenario are
	// given, the trace wins — the Scenario is assumed to be its source.
	// When Faults is nil and the spec declares faults, Run compiles them
	// against the fleet's shard shape, so one spec drives the identical
	// fault schedule here and in a live coachd. Server crash/recover
	// events apply at the top of each evaluation tick; train-fail skips
	// model training (every admission degrades to the fully-guaranteed
	// best-fit split); serving-only faults (latency, handoff crash
	// points) are ignored. See docs/DESIGN.md §13.
	Scenario *scenario.Spec
	// VisitCounter, when non-nil, is incremented atomically with the
	// number of placed-VM records each shard tick visits: the VMs whose
	// utilization changed, plus the tick's placements and re-admissions.
	// Benchmarks use it as the machine-independent work metric of the
	// delta pass.
	VisitCounter *int64
}

// cpuContentionFrac: a server tick counts as CPU-contended when utilized
// CPU demand exceeds this fraction of server capacity (§4.3: "CPU
// contention occurs when demand exceeds 50% of the server capacity" — the
// hyperthread-sharing threshold).
const cpuContentionFrac = 0.5

// DefaultConfig returns the Coach policy configuration.
func DefaultConfig() Config { return ConfigForPolicy(scheduler.PolicyCoach) }

// ConfigForPolicy returns the §4.3 configuration for one of the Fig. 20
// policies, evaluated from day 7.
func ConfigForPolicy(p scheduler.PolicyKind) Config {
	cfg := Config{FleetConfig: core.FleetConfigForPolicy(p)}
	cfg.TrainUpTo = 7 * timeseries.SamplesPerDay
	return cfg
}

// VMOutcome records prediction quality for one placed, oversubscribed VM,
// comparing the guaranteed (percentile-based) allocation against the ideal
// allocation — the utilization the VM actually exhibited (Fig. 19).
type VMOutcome struct {
	VMID int
	// OverAllocFrac[k] is the mean over windows of the positive gap
	// between the predicted PX utilization (as allocated, with bucket
	// rounding) and the actual PX utilization, as a fraction of the
	// allocation: resources that could have been saved with an ideal
	// allocation.
	OverAllocFrac resources.Vector
	// UnderAllocated[k] is true when the guaranteed portion (the max of
	// the predicted PX across windows) fell below the actual PX maximum:
	// the misprediction §3.3's design guards against, which requires
	// under-predicting every window's contribution to the maximum.
	UnderAllocated [resources.NumKinds]bool
}

// Result summarizes one run.
type Result struct {
	Policy    scheduler.PolicyKind
	Requested int // VM arrivals during the evaluation period
	Placed    int
	Rejected  int
	// Oversubscribed counts placed VMs that received a non-trivial
	// guaranteed/oversubscribed split.
	Oversubscribed int
	// UsedServers is the peak number of concurrently occupied servers.
	UsedServers int
	// ServerTicks is the number of (used server, 5-minute tick) slots.
	ServerTicks int
	// CPUViolations / MemViolations count contended slots.
	CPUViolations int
	MemViolations int
	Outcomes      []VMOutcome
	// DataPlane aggregates the fleet-wide memory data plane (nil unless
	// Config.DataPlane was set): mitigation and paging volumes, agent
	// counters and the access-latency distribution.
	DataPlane *DataPlaneResult
	// Faults aggregates the failure-domain engine's counters (nil unless
	// a fault schedule was active). See docs/DESIGN.md §13.
	Faults *FaultResult
}

// CPUViolationFrac returns CPU-contended slots as a fraction of slots.
func (r *Result) CPUViolationFrac() float64 { return frac(r.CPUViolations, r.ServerTicks) }

// MemViolationFrac returns memory-contended slots as a fraction of slots.
func (r *Result) MemViolationFrac() float64 { return frac(r.MemViolations, r.ServerTicks) }

// PlacedFrac returns the share of arrivals the fleet could host.
func (r *Result) PlacedFrac() float64 { return frac(r.Placed, r.Requested) }

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// MeanOverAllocFrac averages the over-allocation error across outcomes for
// resource k (Fig. 19a).
func (r *Result) MeanOverAllocFrac(k resources.Kind) float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	var sum float64
	for _, o := range r.Outcomes {
		sum += o.OverAllocFrac[k]
	}
	return sum / float64(len(r.Outcomes))
}

// UnderAllocFrac returns the fraction of oversubscribed VMs whose reserved
// maximum under-ran their actual maximum for resource k (Fig. 19b).
func (r *Result) UnderAllocFrac(k resources.Kind) float64 {
	if len(r.Outcomes) == 0 {
		return 0
	}
	n := 0
	for _, o := range r.Outcomes {
		if o.UnderAllocated[k] {
			n++
		}
	}
	return float64(n) / float64(len(r.Outcomes))
}

// Run executes one simulation over the evaluation period of tr
// ([cfg.TrainUpTo, horizon)) on the given fleet.
//
// The fleet is partitioned into one shard per cluster (clusters never
// share VMs in the scheduler, so shards are independent), each VM's
// arrival/departure events are routed to its home cluster's shard, and
// shards replay concurrently on a worker pool bounded by cfg.Workers.
// Per-shard results are merged deterministically — the Result (including
// Outcomes order, sorted by VMID) is byte-identical for any worker count.
func Run(tr *trace.Trace, fleet *cluster.Fleet, cfg Config) (*Result, error) {
	tr, cfg, states, err := prepare(tr, fleet, cfg)
	if err != nil {
		return nil, err
	}

	// Cross-shard migration couples shards at sample boundaries; without
	// it shards stay closed worlds and replay to completion without
	// barriers. Both paths produce byte-identical Results for any worker
	// count.
	exchanging := cfg.DataPlane && cfg.CrossShardMigration &&
		cfg.MitigationPolicy == agent.PolicyMigrate && len(states) > 1
	if exchanging {
		err = runExchanging(states, tr, cfg)
	} else {
		err = runDecoupled(states, tr, cfg)
	}
	if err != nil {
		return nil, err
	}
	return seal(states, cfg, tr.Horizon-cfg.TrainUpTo), nil
}

// seal ends a replay: the judging phase scores the placed VMs, then every
// shard's result is finished and merged.
func seal(states []*shardState, cfg Config, ticks int) *Result {
	judgePhase(states, cfg)
	results := make([]*shardResult, len(states))
	for i, st := range states {
		results[i] = st.finish()
	}
	return merge(cfg, results, ticks)
}

// prepare resolves a Run's inputs and builds its replay states: it
// generates the trace from cfg.Scenario when tr is nil, builds the shards
// (core.FleetConfig.NewShards validates the trace, fleet and config),
// compiles the scenario's faults against the fleet's shard shape and
// picks the model (cfg.Model, a freshly trained one, or none) the
// arrival phase predicts with.
func prepare(tr *trace.Trace, fleet *cluster.Fleet, cfg Config) (*trace.Trace, Config, []*shardState, error) {
	if tr == nil {
		if cfg.Scenario == nil {
			return nil, cfg, nil, fmt.Errorf("sim: nil trace and no Config.Scenario to generate one from")
		}
		var err error
		if tr, err = trace.GenerateScenario(cfg.Scenario); err != nil {
			return nil, cfg, nil, err
		}
		if cfg.TrainUpTo == 0 {
			cfg.TrainUpTo = tr.Horizon / 2
		}
	}
	shards, err := cfg.NewShards(tr, fleet)
	if err != nil {
		return nil, cfg, nil, err
	}

	if cfg.Faults == nil && cfg.Scenario != nil && len(cfg.Scenario.Faults) > 0 {
		sizes := make([]int, len(shards))
		for i, g := range fleet.Shards() {
			sizes[i] = len(g)
		}
		cfg.Faults, err = fault.Compile(cfg.Scenario.Faults, cfg.Scenario.Seed,
			sizes, tr.Horizon-cfg.TrainUpTo)
		if err != nil {
			return nil, cfg, nil, err
		}
	}

	model := cfg.Model
	if cfg.Faults.TrainFail() {
		// Injected training failure: the run degrades exactly like a live
		// coachd whose lazy training errored — no model, every VM admitted
		// on its fully-guaranteed best-fit split.
		model = nil
	} else if model == nil && cfg.Policy != scheduler.PolicyNone {
		if model, err = predict.TrainLongTerm(tr, cfg.TrainUpTo, cfg.TrainConfig()); err != nil {
			return nil, cfg, nil, err
		}
	}
	return tr, cfg, newShardStates(shards, tr, model, cfg), nil
}

// runDecoupled replays every shard to completion independently, one
// shard per par.ForEach index — the fast path when no inter-shard
// coupling is possible. Errors land by shard index, so the first one
// reported does not depend on scheduling.
func runDecoupled(states []*shardState, tr *trace.Trace, cfg Config) error {
	errs := make([]error, len(states))
	par.ForEach(cfg.Workers, len(states), func(i int) {
		for t := cfg.TrainUpTo; t < tr.Horizon; t++ {
			if errs[i] = states[i].step(t); errs[i] != nil {
				return
			}
		}
	})
	return firstErr(errs)
}

// runExchanging advances every shard one 5-minute sample in parallel,
// one shard per par.ForEach index, then applies the cross-shard
// migration exchange at the sample boundary — the ordered-parallelism
// discipline: compute in parallel, trade state only at the barrier, in
// one deterministic order.
func runExchanging(states []*shardState, tr *trace.Trace, cfg Config) error {
	errs := make([]error, len(states))
	for t := cfg.TrainUpTo; t < tr.Horizon; t++ {
		par.ForEach(cfg.Workers, len(states), func(i int) { errs[i] = states[i].step(t) })
		if err := firstErr(errs); err != nil {
			return err
		}
		if err := exchangeMigrations(states); err != nil {
			return err
		}
	}
	return nil
}

// firstErr returns the lowest-indexed shard's error so failures are
// independent of scheduling order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// exchangeMigrations is the serial inter-shard apply step: collect every
// shard's outbox, order requests by (tick, srcShard, vmID), and land each
// on the best unpressured best-fit server across all other shards —
// reserve at the destination, release the source, commit the memory,
// move the replay accounting. Requests no shard can take settle back in
// their home shard (least-pressured feasible server, else a warm re-land
// on the source). Serial execution over a sorted order keeps the merged
// Result byte-identical for any worker count.
func exchangeMigrations(states []*shardState) error {
	var reqs []migRequest
	for _, st := range states {
		reqs = append(reqs, st.outbox...)
		st.outbox = st.outbox[:0]
	}
	if len(reqs) == 0 {
		return nil
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Before(reqs[j].MigrationRequest) })
	shards := make([]*core.Shard, len(states))
	for i, st := range states {
		shards[i] = st.sh
	}
	for _, rq := range reqs {
		src := states[rq.SrcShard]
		bestShard, bestServer := core.BestInbound(shards, rq.MigrationRequest, nil)
		if bestShard < 0 {
			plan, err := src.sh.Settle(rq.MigrationRequest)
			if err != nil {
				return err
			}
			src.applyPlan(plan)
			continue
		}
		dst := states[bestShard]
		if err := dst.sh.Eng.Reserve(rq.MigrationRequest, bestServer); err != nil {
			return err
		}
		src.sh.Release(rq.VMID)
		src.removeTracked(rq.VMID) // memory already left with the migration
		plan, err := dst.sh.Eng.CommitInbound(rq.MigrationRequest, bestServer)
		if err != nil {
			return err
		}
		dst.addImmigrated(rq, bestServer)
		src.sh.Count(plan)
	}
	return nil
}

// outcome compares a CVM's guaranteed (percentile-based) allocation
// against the VM's actual percentile utilization over its lifetime.
func outcome(vm *trace.VM, cvm *coachvm.CVM, cfg Config) VMOutcome {
	o := VMOutcome{VMID: vm.ID}
	for _, k := range resources.Kinds {
		actualPct := vm.Util[k].WindowPercentile(cfg.Windows, cfg.Percentile)
		var sum float64
		var actualGuar float64
		for t := 0; t < cfg.Windows.PerDay; t++ {
			if d := cvm.Pred.Pct[k][t] - actualPct[t]; d > 0 {
				sum += d
			}
			if actualPct[t] > actualGuar {
				actualGuar = actualPct[t]
			}
		}
		o.OverAllocFrac[k] = sum / float64(cfg.Windows.PerDay)
		if cvm.Pred.PADemandFrac(k) < actualGuar-1e-9 {
			o.UnderAllocated[k] = true
		}
	}
	return o
}
