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
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/timing"
	"github.com/coach-oss/coach/internal/trace"
)

// Config parameterizes one simulation run. The embedded FleetConfig is
// the block serve.Config shares (policy, training split, data plane,
// cross-shard migration, faults); core.FleetConfig.NewShards validates it
// and builds the shards both layers replay.
type Config struct {
	core.FleetConfig
	// Workers bounds how many goroutines replay cluster shards and run
	// the arrival and judging phases around the replay; the replay uses
	// at most min(Workers, GOMAXPROCS, shards). 0 (the default) uses
	// runtime.GOMAXPROCS(0); 1 runs everything serially.
	// The merged Result is byte-identical for any value.
	Workers int
	// Model optionally supplies a pre-trained long-term predictor to
	// reuse across runs (it must have been trained on the same trace up
	// to TrainUpTo with TrainConfig()). When nil, Run trains its own
	// unless Policy is PolicyNone.
	Model *predict.LongTerm
	// Scenario, when non-nil, is the workload spec the trace was
	// generated from. When Faults is nil and the spec declares faults,
	// Run compiles them against the fleet's shard shape, so one spec
	// drives the identical fault schedule here and in a live coachd.
	// Server crash/recover events apply after each evaluation tick's
	// departures and arrivals, as in serve; train-fail skips model
	// training (every admission degrades to the fully-guaranteed
	// best-fit split); serving-only faults (latency, handoff crash
	// points) are ignored. See docs/DESIGN.md §13.
	Scenario *scenario.Spec
	// VisitCounter, when non-nil, is incremented atomically with the
	// number of placed-VM records each shard tick visits: the VMs whose
	// utilization changed, plus the tick's placements and re-admissions.
	// Benchmarks use it as the machine-independent work metric of the
	// delta pass.
	VisitCounter *int64
	// Timings, when non-nil, is a tree from NewTimings that Run adds its
	// stage times to, and Result.Timings points to it. Results of timed
	// runs differ in their timings, so leave it nil where Results are
	// compared.
	Timings *timing.Tree
}

// cpuContentionFrac: a server tick counts as CPU-contended when utilized
// CPU demand exceeds this fraction of server capacity (§4.3: "CPU
// contention occurs when demand exceeds 50% of the server capacity" — the
// hyperthread-sharing threshold).
const cpuContentionFrac = 0.5

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
	// Timings is Config.Timings, holding this run's stage times.
	Timings *timing.Tree
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
// shards replay concurrently on min(cfg.Workers, GOMAXPROCS, shards)
// workers.
// Per-shard results are merged deterministically — the Result (including
// Outcomes order, sorted by VMID) is byte-identical for any worker count.
func Run(tr *trace.Trace, fleet *cluster.Fleet, cfg Config) (*Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	start := cfg.Timings.Start()
	tr, cfg, states, err := prepare(tr, fleet, cfg)
	if err != nil {
		return nil, err
	}

	// Cross-shard migration couples shards at sample boundaries, so
	// with it the replay meets at a barrier every tick; without it shards
	// stay closed worlds and meet once, at the end of the run. Both give
	// byte-identical Results for any worker count.
	exchanging := cfg.DataPlane && cfg.CrossShardMigration &&
		cfg.MitigationPolicy == agent.PolicyMigrate && len(states) > 1
	ticks := cfg.Timings.Start()
	if err := replay(states, tr, cfg, exchanging); err != nil {
		return nil, err
	}
	cfg.Timings.Since(stageTicks, ticks)
	res := seal(states, cfg, tr.Horizon-cfg.TrainUpTo)
	res.Timings = cfg.Timings
	cfg.Timings.Since(stageRun, start)
	return res, nil
}

// seal ends a replay: the judging phase scores the placed VMs, then every
// shard's result is finished and merged.
func seal(states []*shardState, cfg Config, ticks int) *Result {
	start := cfg.Timings.Start()
	judgePhase(states, cfg)
	cfg.Timings.Since(stageJudging, start)
	results := make([]*shardResult, len(states))
	for i, st := range states {
		results[i] = st.finish()
	}
	return merge(cfg, results, ticks)
}

// prepare resolves a Run's inputs and builds its replay states: it
// compiles the scenario's faults against the fleet's shard shape, builds
// the shards (core.FleetConfig.NewShards validates the trace, fleet and
// config, and hands each shard its events) and picks the model
// (cfg.Model, a freshly trained one, or none) the arrival phase predicts
// with.
func prepare(tr *trace.Trace, fleet *cluster.Fleet, cfg Config) (*trace.Trace, Config, []*shardState, error) {
	build := cfg.Timings.Start()
	if cfg.Faults == nil && cfg.Scenario != nil && len(cfg.Scenario.Faults) > 0 {
		var sizes []int
		for _, g := range fleet.Shards() {
			sizes = append(sizes, len(g))
		}
		var err error
		cfg.Faults, err = fault.Compile(cfg.Scenario.Faults, cfg.Scenario.Seed,
			sizes, tr.Horizon-cfg.TrainUpTo)
		if err != nil {
			return nil, cfg, nil, err
		}
	}
	shards, err := cfg.NewShards(tr, fleet)
	if err != nil {
		return nil, cfg, nil, err
	}
	// The replay's demand is quarters × code (placedRec), exact only for
	// allocations in whole quarter units.
	for i := range tr.VMs {
		if _, ok := tr.VMs[i].Alloc.Quarters(); !ok {
			return nil, cfg, nil, fmt.Errorf("sim: vm %d allocation %v is not a whole count of quarter units", tr.VMs[i].ID, tr.VMs[i].Alloc)
		}
	}
	cfg.Timings.Since(stageBuild, build)

	model := cfg.Model
	if cfg.Faults.TrainFail() {
		// Injected training failure: the run degrades exactly like a live
		// coachd whose lazy training errored — no model, every VM admitted
		// on its fully-guaranteed best-fit split.
		model = nil
	} else if model == nil && cfg.Policy != scheduler.PolicyNone {
		cfg.Timings.Alloc(stageTrain, func() { model, err = predict.TrainLongTerm(tr, cfg.TrainUpTo, cfg.TrainConfig()) })
		if err != nil {
			return nil, cfg, nil, err
		}
	}
	return tr, cfg, newShardStates(shards, tr, model, cfg), nil
}

// replay steps every shard through the evaluation period on a gang of
// workers started once for the run, one epoch of ticks at a time. With
// the exchange an epoch is one 5-minute sample, and the cross-shard
// migration exchange runs on the calling goroutine at its boundary —
// the ordered-parallelism discipline: compute in parallel, trade state
// only at the barrier, in one deterministic order. Without it one epoch
// covers the whole period, and each worker replays its shards to the
// end one at a time.
func replay(states []*shardState, tr *trace.Trace, cfg Config, exchanging bool) error {
	g := startGang(states, cfg)
	defer g.stop()
	epochLen := tr.Horizon - cfg.TrainUpTo
	var x *exchange
	if exchanging {
		epochLen, x = 1, newExchange(states)
	}
	tm := cfg.Timings
	var inSteps, inExchange, epochs int64
	for t := cfg.TrainUpTo; t < tr.Horizon; t += epochLen {
		start := tm.Start()
		if err := g.run(t, t+epochLen); err != nil {
			return err
		}
		joined := tm.Start()
		if x != nil {
			if err := x.apply(); err != nil {
				return err
			}
		}
		inSteps, inExchange, epochs = inSteps+joined-start, inExchange+tm.Start()-joined, epochs+1
	}
	if x != nil {
		tm.Add(stageExchange, inExchange, epochs)
	}
	splitWait(tm, states, g.w, inSteps, g.imbalance, epochs)
	return nil
}

// The gang's waits spin gangSpins times on the counter, then yield
// gangYields times, then park until the counter moves.
const (
	gangSpins  = 1000
	gangYields = 1000
)

// gang steps one replay's shards, one epoch of ticks at a time, on w
// workers that live for the whole run. Each shard stays on the worker
// ownShards deals it to, so its state stays in one core's cache; the
// calling goroutine is worker 0. The caller publishes the ticks [t, end)
// by raising epoch, steps its own shards and waits for done to count
// every other worker's epoch: one barrier per epoch, no goroutine
// started after the first.
type gang struct {
	states []*shardState
	w      int
	own    [][]int // own[k]: worker k's shard indices, ascending
	tm     *timing.Tree
	t, end int     // the ticks [t, end) published by the latest epoch
	halt   bool    // set before the final epoch: workers exit
	errs   []error // by shard index, set only when a step fails
	// busy[k] is worker k's time stepping its shards this epoch (timed
	// runs only); imbalance sums the slowest worker's busy time less the
	// mean over the epochs.
	busy      []int64
	imbalance int64

	epoch atomic.Int64 // epochs published
	_     [56]byte
	done  atomic.Int64 // worker epochs finished, w-1 per epoch
	_     [56]byte

	parked atomic.Int32 // goroutines blocked in cond.Wait
	mu     sync.Mutex
	cond   sync.Cond // on mu
	wg     sync.WaitGroup
}

// startGang starts min(Workers, GOMAXPROCS, shards) - 1 workers beside
// the caller; Workers 0 means GOMAXPROCS.
func startGang(states []*shardState, cfg Config) *gang {
	procs := runtime.GOMAXPROCS(0)
	w := cfg.Workers
	if w <= 0 {
		w = procs
	}
	g := &gang{states: states, w: max(1, min(w, procs, len(states))), tm: cfg.Timings, errs: make([]error, len(states))}
	g.own = ownShards(states, g.w)
	g.cond.L = &g.mu
	if g.tm != nil {
		g.busy = make([]int64, g.w)
	}
	g.wg.Add(g.w - 1)
	for k := 1; k < g.w; k++ {
		go g.work(k)
	}
	return g
}

// ownShards deals the shards to w workers by server count, a shard's
// work per tick scaling with its servers: largest first, each to the
// least-loaded worker, ties to the lower index. Equal shards deal round
// robin, shard i to worker i mod w.
func ownShards(states []*shardState, w int) [][]int {
	order := make([]int, len(states))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(states[b].servers) - len(states[a].servers) })
	own, load := make([][]int, w), make([]int, w)
	for _, i := range order {
		k := 0
		for j := range load {
			if load[j] < load[k] {
				k = j
			}
		}
		own[k] = append(own[k], i)
		load[k] += 1 + len(states[i].servers)
	}
	for _, o := range own {
		slices.Sort(o)
	}
	return own
}

// work is worker k's loop: wait for each epoch, step its shards, count
// itself done.
func (g *gang) work(k int) {
	defer g.wg.Done()
	for e := int64(1); ; e++ {
		g.await(&g.epoch, e)
		if g.halt {
			return
		}
		g.stepOwn(k)
		g.done.Add(1)
		g.wake()
	}
}

// run steps every shard through the ticks [t, end) and returns the
// lowest-indexed shard's error, so failures are independent of
// scheduling order. A shard whose step fails stops there.
func (g *gang) run(t, end int) error {
	g.t, g.end = t, end
	e := g.epoch.Add(1)
	g.wake()
	g.stepOwn(0)
	g.await(&g.done, e*int64(g.w-1))
	if g.busy != nil {
		var sum, slowest int64
		for _, ns := range g.busy {
			sum += ns
			slowest = max(slowest, ns)
		}
		g.imbalance += slowest - sum/int64(g.w)
	}
	return firstErr(g.errs)
}

// stepOwn steps worker k's shards through the published ticks, one
// shard at a time.
func (g *gang) stepOwn(k int) {
	start := g.tm.Start()
	for _, i := range g.own[k] {
		for t := g.t; t < g.end; t++ {
			if err := g.states[i].step(t); err != nil {
				g.errs[i] = err
				break
			}
		}
	}
	if g.busy != nil {
		g.busy[k] = timing.Now() - start
	}
}

// stop publishes a final epoch that tells the workers to exit and waits
// until they have, so no goroutine outlives the replay.
func (g *gang) stop() {
	g.halt = true
	g.epoch.Add(1)
	g.wake()
	g.wg.Wait()
}

// await returns once *c reaches target: it spins, then yields, then
// parks until a wake.
func (g *gang) await(c *atomic.Int64, target int64) {
	for i := 0; c.Load() < target; i++ {
		if i < gangSpins {
			continue
		}
		if i < gangSpins+gangYields {
			runtime.Gosched()
			continue
		}
		g.mu.Lock()
		g.parked.Add(1)
		for c.Load() < target {
			g.cond.Wait()
		}
		g.parked.Add(-1)
		g.mu.Unlock()
		return
	}
}

// wake rouses parked goroutines after a counter they wait on moved. A
// waiter counts itself parked before its last look at the counter, and
// the mover raised the counter before looking at parked, so one of the
// two sees the other.
func (g *gang) wake() {
	if g.parked.Load() > 0 {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
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

// exchange is the serial inter-shard apply step of one replay. It keeps
// the shards' view BestInbound scans and the tick's request buffer for
// the whole run.
type exchange struct {
	states []*shardState
	shards []*core.Shard
	reqs   []migRequest
}

func newExchange(states []*shardState) *exchange {
	x := &exchange{states: states, shards: make([]*core.Shard, len(states))}
	for i, st := range states {
		x.shards[i] = st.sh
	}
	return x
}

// apply collects every shard's outbox, orders requests by (tick,
// srcShard, vmID), and lands each on the best unpressured best-fit
// server across all other shards — reserve at the destination, release
// the source, commit the memory, move the replay accounting. Requests no
// shard can take settle back in their home shard (least-pressured
// feasible server, else a warm re-land on the source). Serial execution
// over a sorted order keeps the merged Result byte-identical for any
// worker count.
func (x *exchange) apply() error {
	reqs := x.reqs[:0]
	for _, st := range x.states {
		reqs = append(reqs, st.outbox...)
		st.outbox = st.outbox[:0]
	}
	x.reqs = reqs
	if len(reqs) == 0 {
		return nil
	}
	slices.SortStableFunc(reqs, func(a, b migRequest) int {
		switch {
		case a.Before(b.MigrationRequest):
			return -1
		case b.Before(a.MigrationRequest):
			return 1
		}
		return 0
	})
	for _, rq := range reqs {
		src := x.states[rq.SrcShard]
		bestShard, bestServer := core.BestInbound(x.shards, rq.MigrationRequest, nil)
		if bestShard < 0 {
			plan, err := src.sh.Settle(rq.MigrationRequest)
			if err != nil {
				return err
			}
			src.applyPlan(plan)
			continue
		}
		dst := x.states[bestShard]
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
	pcts := vm.Runs.WindowPercentile(cfg.Windows, cfg.Percentile)
	for _, k := range resources.Kinds {
		actualPct := pcts[k]
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
