// Package serve is Coach's online control plane: a long-running,
// concurrency-safe prediction-and-admission service over the offline
// stack — the long-term forest predictor (internal/predict), the
// time-window scheduler (internal/scheduler) and CoachVM shaping
// (internal/coachvm) — exposed over HTTP/JSON by cmd/coachd and driven by
// cmd/coach-loadgen.
//
// Three mechanisms make the hot path production-shaped rather than a thin
// wrapper (docs/DESIGN.md §7):
//
//   - Requests run on their callers' goroutines. Predictions read the
//     shared read-only forests, and a VM's next admission takes its last
//     prediction instead of predicting again. An admission shapes its
//     CoachVM outside any lock, then makes one placement decision under
//     its home shard's lock, so every response is the one a serial replay
//     of that shard's lock order would give.
//   - A trained-model cache keyed by (trace fingerprint, training config)
//     makes cold starts pay forest training once; later services and
//     requests share the fitted model (singleflight under concurrency).
//   - Fleet state is sharded per cluster — the same boundaries the
//     parallel simulator replays concurrently — with one lock per shard,
//     so admissions and releases in different clusters never contend.
package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/memsim"
	"github.com/coach-oss/coach/internal/mlforest"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

// ErrDataPlaneDisabled is returned by TickDataPlane when the service was
// built without Config.DataPlane.
var ErrDataPlaneDisabled = errors.New("serve: data plane disabled")

// ErrModelUnavailable marks predictions that failed because the model
// could not be trained — a real training error or an injected
// train-fail fault. The service runs degraded: admissions fall back to
// fully-guaranteed best-fit placement, predictions map to HTTP 503 with
// a Retry-After, and /readyz reports not-ready.
var ErrModelUnavailable = errors.New("serve: prediction model unavailable")

// Config parameterizes a Service. The embedded FleetConfig is the block
// sim.Config shares: the policy (default Coach, 6x4h windows, P95),
// TrainUpTo (default: half the horizon), the data plane, cross-shard
// migration and faults. With DataPlane set, admitted VMs attach their
// memory and TickDataPlane advances the fleet by one 5-minute sample
// (cmd/coachd drives it on a timer); GET /v1/stats then reports
// fleet-wide mitigation aggregates. CrossShardMigration runs through the
// two-phase (reserve-then-commit) handoff in TickDataPlane. Faults is the
// schedule the simulator applies for the same spec: server crash/recover
// events apply on data-plane ticks; train-fail forces degraded
// (best-fit-only) serving; latency windows delay requests; handoff crash
// points kill the cross-shard handoff coordinator mid-protocol,
// exercising the intent-log recovery sweep. See docs/DESIGN.md §13.
type Config struct {
	core.FleetConfig
	// Cache optionally shares a trained-model cache across services.
	// When nil the service creates a private one.
	Cache *ModelCache
	// AdmitPressureFrac makes admission pressure-aware (0 = off): an
	// oversubscribed VM is only placed on a server whose pool, after
	// absorbing the VM's scheduled peak VA demand, stays below this
	// occupancy — re-routing it off the best-fit server when that pool
	// is thrashing, and rejecting it when no server in the home cluster
	// can absorb it (even if raw capacity exists). Requires DataPlane.
	AdmitPressureFrac float64
}

// DefaultConfig returns the paper's deployed configuration.
func DefaultConfig() Config {
	return Config{FleetConfig: core.FleetConfigForPolicy(scheduler.PolicyCoach)}
}

// fleetShard is one cluster's independently lockable slice of fleet
// state. Placement never crosses cluster boundaries (cluster.Fleet.Shards
// — the invariant the parallel simulator is built on), so per-shard
// locking admits full concurrency between clusters while each shard's
// scheduler stays the deterministic single-threaded bin-packer.
type fleetShard struct {
	mu sync.Mutex
	// Shard is the cluster's scheduler, data plane, migration engine and
	// what-if scorer with their crash and migration counters — the same
	// core.Shard the simulator replays — guarded by mu.
	*core.Shard
	admitted int64
	released int64
	rejected int64

	// dpVMs holds, per VM id, the utilization cursor TickDataPlane replays
	// an attached VM's working set from (nil: not attached here). Guarded
	// by mu.
	dpVMs []*dpTracked

	// pressureRejected counts pressure-aware rejections (guarded by mu).
	pressureRejected int64
}

// dpTracked is one admitted VM's data-plane state: age counts the
// data-plane ticks it has lived through, indexing into the VM's utilization
// series (clamped to its last sample once the series is exhausted) —
// until a live utilization report (POST /v1/report) overrides the
// replayed series with client-pushed truth.
type dpTracked struct {
	vm  *trace.VM
	age int
	// reported is the last client-reported memory utilization fraction;
	// once hasReport is set it drives the working set instead of the
	// age-indexed replay.
	reported  float64
	hasReport bool
}

// wss returns the VM's current working-set size: allocation times the
// reported utilization when a client pushed one, otherwise the
// utilization sample at the VM's age.
func (d *dpTracked) wss() float64 {
	if d.hasReport {
		return d.vm.Alloc[resources.Memory] * d.reported
	}
	n := d.vm.Runs.Len()
	if n == 0 {
		return 0
	}
	return d.vm.Alloc[resources.Memory] * d.vm.Runs.At(min(d.age, n-1))[resources.Memory]
}

// Service is a concurrency-safe prediction-and-admission server over one
// trace and one fleet. All methods are safe for concurrent use. The
// zero value is not usable; construct with New.
type Service struct {
	cfg   Config
	tr    *trace.Trace
	fleet *cluster.Fleet
	cache *ModelCache
	key   ModelKey
	// slots holds, per VM id, the prediction Predict last made for the
	// VM that no Admit has taken yet. A VM id is its index in tr.VMs
	// (New checks), so every per-VM table here is a slice indexed by id.
	slots  []atomic.Pointer[admitIn]
	shards []*fleetShard
	// cores lists each fleetShard's core.Shard, in shard order, for
	// core.BestInbound.
	cores []*core.Shard

	// route holds, per VM id, the shard that currently holds the VM (-1
	// when not admitted). Admission always lands a VM in its home
	// cluster's shard, but a cross-shard migration can move it; Release,
	// Report and duplicate detection follow the route, not the home.
	// Guarded by routeMu, never held together with a shard lock.
	routeMu sync.Mutex
	route   []int

	// predicts and admits count answered Predict calls and admission
	// decisions; both run on their callers' goroutines.
	predicts atomic.Int64
	admits   atomic.Int64

	// onDecide, when set, is called with the shard and VM id of every
	// admission decision, under that shard's lock (nil in production;
	// the ordering wall records each shard's lock order through it).
	onDecide func(shard, vmID int)

	// dpTicks counts completed TickDataPlane passes.
	dpTicks atomic.Int64

	closed atomic.Bool

	// model is the trained predictor, set once; the atomic pointer keeps
	// the per-request fast path lock-free (modelMu only guards training).
	model   atomic.Pointer[predict.LongTerm]
	modelMu sync.Mutex

	// Failure-domain state (docs/DESIGN.md §13). injector fires the
	// serving-only faults (handoff crash points, injected request
	// latency); each core.Shard walks its own server crash/recover
	// events; intents is the write-ahead log of in-flight cross-shard
	// handoffs, swept for crash recovery before every tick; degraded
	// flips when model training fails and the service falls back to
	// best-fit-only admission.
	injector *fault.Injector

	intentMu sync.Mutex
	intents  map[int]*handoffIntent

	degraded atomic.Bool
}

// New builds a service over tr and fleet. The model is trained lazily on
// the first prediction (through the model cache — see Warm to front-load
// it) so construction stays cheap.
func New(tr *trace.Trace, fleet *cluster.Fleet, cfg Config) (*Service, error) {
	cfg.ClusterConfig = cfg.WithDefaults()
	if cfg.TrainUpTo == 0 {
		cfg.TrainUpTo = tr.Horizon / 2
	}
	cores, err := cfg.NewShards(tr, fleet)
	if err != nil {
		return nil, err
	}
	cache := cfg.Cache
	if cache == nil {
		cache = NewModelCache()
	}
	s := &Service{
		cfg:      cfg,
		tr:       tr,
		fleet:    fleet,
		cache:    cache,
		slots:    make([]atomic.Pointer[admitIn], len(tr.VMs)),
		cores:    cores,
		route:    make([]int, len(tr.VMs)),
		key:      ModelKey{TraceID: Fingerprint(tr), TrainUpTo: cfg.TrainUpTo, Config: cfg.TrainConfig()},
		injector: fault.NewInjector(cfg.Faults),
		intents:  make(map[int]*handoffIntent),
	}
	for i := range s.route {
		s.route[i] = -1
	}
	for _, cs := range cores {
		s.shards = append(s.shards, &fleetShard{Shard: cs, dpVMs: make([]*dpTracked, len(tr.VMs))})
	}
	return s, nil
}

// modelFor returns the trained model, training through the cache on first
// use. Concurrent callers on a cold cache block on one training run;
// afterwards the lookup is a lock-free atomic load. A failed (or
// fault-injected) training run marks the service degraded and returns
// ErrModelUnavailable; a later successful run clears the flag.
func (s *Service) modelFor() (*predict.LongTerm, error) {
	if m := s.model.Load(); m != nil {
		return m, nil
	}
	s.modelMu.Lock()
	defer s.modelMu.Unlock()
	if m := s.model.Load(); m != nil {
		return m, nil
	}
	if s.cfg.Faults.TrainFail() {
		// Injected training failure: degraded for the process lifetime,
		// exactly like a training run that errored and keeps erroring.
		s.degraded.Store(true)
		return nil, fmt.Errorf("%w: injected training failure", ErrModelUnavailable)
	}
	m, err := s.cache.Get(s.key, func() (*predict.LongTerm, error) {
		return predict.TrainLongTerm(s.tr, s.key.TrainUpTo, s.key.Config)
	})
	if err != nil {
		s.degraded.Store(true)
		return nil, fmt.Errorf("%w: %v", ErrModelUnavailable, err)
	}
	s.degraded.Store(false)
	s.model.Store(m)
	return m, nil
}

// Warm trains (or fetches) the model eagerly so the first request does not
// pay the cold start.
func (s *Service) Warm() error {
	_, err := s.modelFor()
	return err
}

// VM resolves a trace VM id (nil when unknown). It is the only way an id
// from outside the process reaches the id-indexed tables.
func (s *Service) VM(id int) *trace.VM {
	if id < 0 || id >= len(s.tr.VMs) {
		return nil
	}
	return &s.tr.VMs[id]
}

// slot returns vm's prediction slot (nil for a VM not of the trace).
func (s *Service) slot(vm *trace.VM) *atomic.Pointer[admitIn] {
	if s.VM(vm.ID) == vm {
		return &s.slots[vm.ID]
	}
	return nil
}

// Predict returns the per-window utilization prediction for vm. ok=false
// means the model lacks history to predict it (§3.3: such VMs must not be
// oversubscribed). It runs on the caller's goroutine: the forests are
// read-only and pool their scratch, so concurrent calls share nothing but
// the model and each answers exactly as LongTerm.Predict does. The answer
// waits in vm's slot for its next Admit, so callers must not modify it.
func (s *Service) Predict(vm *trace.VM) (coachvm.Prediction, bool, error) {
	if s.isClosed() {
		return coachvm.Prediction{}, false, ErrClosed
	}
	m, err := s.modelFor()
	if err != nil {
		return coachvm.Prediction{}, false, err
	}
	pred, ok := m.Predict(s.tr, vm)
	s.predicts.Add(1)
	if sl := s.slot(vm); sl != nil {
		sl.Store(&admitIn{pred: pred, ok: ok})
	}
	return pred, ok, nil
}

// AdmitResult reports one admission decision.
type AdmitResult struct {
	// Admitted is false when no server in the VM's home cluster had
	// capacity, or (with AdmitPressureFrac set) when no server's pool
	// could absorb the VM's oversubscribed demand.
	Admitted bool
	// Reason explains a rejection ("" when admitted).
	Reason string
	// Cluster is the home cluster the VM was routed to.
	Cluster int
	// Server is the shard-local server index the VM was placed on (-1
	// when rejected).
	Server int
	// Oversubscribed reports whether the VM received a non-trivial
	// guaranteed/oversubscribed split (false: fully guaranteed).
	Oversubscribed bool
	// Alloc and Guaranteed are the requested allocation and the resolved
	// always-backed portion.
	Alloc      resources.Vector
	Guaranteed resources.Vector
	// Retryable marks rejections worth retrying later: capacity or pool
	// pressure that admitted VMs releasing (or servers recovering) can
	// relieve. HTTP maps them to 503 + Retry-After.
	Retryable bool
	// Degraded reports that the admission was shaped without a model
	// (training failed): the VM was placed fully guaranteed, best-fit.
	Degraded bool
}

// Admit predicts vm, shapes it into a CoachVM under the configured policy
// and places it onto its home cluster's shard. It takes the prediction the
// VM's last Predict left in its slot, or predicts on the caller's
// goroutine: the model never changes, so both are the same bits. The
// CoachVM is built outside any lock; the placement decision (admitOne)
// runs under the home shard's lock, so admissions of distinct clusters
// run concurrently while each shard's best-fit packer stays deterministic:
// every response is the one a serial replay of the shard's lock order
// would give.
//
// With AdmitPressureFrac set, admission of an oversubscribed VM consults
// the shard's data-plane pressure: the VM is re-routed to the best-fit
// server whose pool can absorb its scheduled peak VA demand, and rejected
// — even when raw capacity exists — when every pool in the home cluster
// is thrashing.
func (s *Service) Admit(vm *trace.VM) (AdmitResult, error) {
	if s.isClosed() {
		return AdmitResult{}, ErrClosed
	}
	if s.VM(vm.ID) == nil {
		return AdmitResult{}, fmt.Errorf("serve: vm %d is not in the trace", vm.ID)
	}
	in := s.admitInput(vm)
	cvm, err := scheduler.BuildCVM(s.cfg.Policy, vm.ID, vm.Alloc, in.pred, in.ok, s.cfg.Windows)
	if err != nil {
		return AdmitResult{}, err
	}
	need := core.VAPeakGB(cvm)
	ci := vm.HomeShard(len(s.shards))
	res := AdmitResult{
		Cluster:        ci,
		Server:         -1,
		Oversubscribed: in.ok && s.cfg.Policy != scheduler.PolicyNone,
		Alloc:          vm.Alloc,
		Guaranteed:     cvm.Guaranteed,
		Degraded:       in.degraded,
	}
	sh := s.shards[ci]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.admitOne(ci, vm, cvm, need, res)
}

// admitIn is one admission's input: the VM's prediction. degraded marks
// a VM shaped without a model (modelFor's only error): fully guaranteed
// best-fit, the safe envelope §3.3 prescribes.
type admitIn struct {
	pred     coachvm.Prediction
	ok       bool
	degraded bool
}

// admitInput takes vm's prediction from its slot, or predicts it.
func (s *Service) admitInput(vm *trace.VM) admitIn {
	if sl := s.slot(vm); sl != nil {
		if in := sl.Swap(nil); in != nil {
			return *in
		}
	}
	var in admitIn
	if m, err := s.modelFor(); err != nil {
		in.degraded = true
	} else {
		in.pred, in.ok = m.Predict(s.tr, vm)
	}
	return in
}

// admitOne is the one admission decision: shard ci's lock is held, cvm is
// vm's shaped CoachVM, need its peak VA demand and res the response with
// everything but the decision filled in.
func (s *Service) admitOne(ci int, vm *trace.VM, cvm *coachvm.CVM, need float64, res AdmitResult) (AdmitResult, error) {
	if s.isClosed() {
		return AdmitResult{}, ErrClosed
	}
	if s.onDecide != nil {
		s.onDecide(ci, vm.ID)
	}
	s.admits.Add(1)
	sh := s.shards[ci]
	if s.routedShard(vm.ID) >= 0 {
		return AdmitResult{}, fmt.Errorf("serve: vm %d %w", vm.ID, ErrAlreadyAdmitted)
	}
	if sh.Sched == nil {
		sh.rejected++
		res.Reason = "home cluster has no servers"
		return res, nil
	}
	if sh.Sched.ServerOf(vm.ID) >= 0 {
		return AdmitResult{}, fmt.Errorf("serve: vm %d %w", vm.ID, ErrAlreadyAdmitted)
	}
	bar := math.Inf(1)
	if sh.DP != nil && s.cfg.AdmitPressureFrac > 0 && need > 0 {
		bar = s.cfg.AdmitPressureFrac
	}
	ro := sh.Scorer.Score(cvm, need)
	srv := ro.Pick(-1, bar)
	if srv < 0 {
		sh.rejected++
		res.Retryable = true
		res.Reason = "no server in the home cluster has capacity"
		if ro.Pick(-1, math.Inf(1)) >= 0 {
			// Capacity exists, but no pool can absorb the VM's
			// oversubscribed demand: admitting it would only add to the
			// thrashing.
			sh.pressureRejected++
			res.Reason = "pool pressure: no server in the home cluster can absorb the VM's oversubscribed demand"
		}
		return res, nil
	}
	if err := sh.AdmitAt(cvm, srv); err != nil {
		return AdmitResult{}, err
	}
	sh.admitted++
	res.Admitted = true
	res.Server = srv
	if sh.DP != nil {
		// TickDataPlane drives the working set from the first sample on.
		sh.dpVMs[vm.ID] = &dpTracked{vm: vm}
	}
	s.setRoute(vm.ID, ci)
	return res, nil
}

// routedShard returns the shard currently holding vmID (-1 when not
// admitted, or not of the trace).
func (s *Service) routedShard(vmID int) int {
	if s.VM(vmID) == nil {
		return -1
	}
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	return s.route[vmID]
}

// setRoute points vmID's route at shard (-1 clears it).
func (s *Service) setRoute(vmID, shard int) {
	s.routeMu.Lock()
	s.route[vmID] = shard
	s.routeMu.Unlock()
}

// Release removes an admitted VM from its server — wherever migration
// routed it — freeing its capacity. released reports whether the VM was
// admitted; after Close it returns ErrClosed like every other mutating
// call — closed is re-checked under the shard lock — so a post-shutdown
// Stats snapshot is final.
//
// A Release can race a cross-shard handoff mid-flight: the route still
// names the source shard while the VM's bookkeeping has left it but not
// yet committed at the destination. Returning false there would leak the
// VM (the caller believes it gone while the commit re-admits it
// elsewhere), so Release retries while the route says "admitted" but the
// routed shard does not hold the VM — the handoff always completes and
// re-points or clears the route, at which point the retry resolves.
func (s *Service) Release(vm *trace.VM) (released bool, err error) {
	if s.isClosed() {
		return false, ErrClosed
	}
	for attempt := 0; ; attempt++ {
		ci := s.routedShard(vm.ID)
		routed := ci >= 0
		if !routed {
			ci = vm.HomeShard(len(s.shards))
		}
		sh := s.shards[ci]
		sh.mu.Lock()
		if s.isClosed() {
			sh.mu.Unlock()
			return false, ErrClosed
		}
		if !sh.Release(vm.ID) {
			sh.mu.Unlock()
			if routed && attempt < 1000 {
				// In-flight handoff: drive its intent forward (the
				// coordinator may have crashed mid-protocol — the intent
				// log makes completion safe from any caller), then yield
				// until it commits or cancels.
				if in := s.intentFor(vm.ID); in != nil {
					if err := s.driveHandoff(in); err != nil {
						return false, err
					}
				}
				runtime.Gosched()
				continue
			}
			return false, nil
		}
		sh.dpVMs[vm.ID] = nil
		sh.released++
		sh.mu.Unlock()
		s.setRoute(vm.ID, -1)
		return true, nil
	}
}

// Report records a live memory-utilization report for an admitted VM:
// the client-pushed fraction of the VM's allocation drives its data-plane
// working set from now on, replacing the age-indexed replay of its trace
// utilization series (POST /v1/report). Out-of-range fractions are
// clamped to [0,1]. applied is false when the VM is not admitted (or the
// service has no data plane attachment for it).
func (s *Service) Report(vm *trace.VM, memUtil float64) (applied bool, err error) {
	if s.isClosed() {
		return false, ErrClosed
	}
	if !s.cfg.DataPlane {
		return false, ErrDataPlaneDisabled
	}
	if memUtil < 0 {
		memUtil = 0
	}
	if memUtil > 1 {
		memUtil = 1
	}
	ci := s.routedShard(vm.ID)
	if ci < 0 {
		return false, nil
	}
	sh := s.shards[ci]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.isClosed() {
		return false, ErrClosed
	}
	tr := sh.dpVMs[vm.ID]
	if tr == nil {
		return false, nil
	}
	tr.reported, tr.hasReport = memUtil, true
	sh.DP.SetWSS(vm.ID, tr.wss())
	return true, nil
}

// TickDataPlane advances every shard's memory data plane by one 5-minute
// sample: each admitted VM's working set follows its utilization series
// (or its last live report), every server runs hypervisor paging plus the
// agent's monitoring/prediction/mitigation pass, and completed live
// migrations resolve through the shard's migration engine under its lock
// — scheduler bookkeeping and memory moving together. Migrations with no
// unpressured same-shard target hand off cross-shard afterwards through
// the write-ahead intent log (driveHandoff). Each tick first sweeps that
// log for intents a crashed coordinator left mid-protocol, then applies
// the compiled fault events due this tick (server crashes/recoveries)
// through core.Shard.ApplyFaults: after the tick's admissions, before
// any working set moves — the point the simulator applies them at too.
// cmd/coachd calls it on a wall-clock timer (-dp-interval); tests drive
// it directly. It returns ErrDataPlaneDisabled when the service was
// built without a data plane.
func (s *Service) TickDataPlane() error {
	if s.isClosed() {
		return ErrClosed
	}
	if !s.cfg.DataPlane {
		return ErrDataPlaneDisabled
	}
	tick := int(s.dpTicks.Load())
	// Recovery sweep before fault application: intents parked by a
	// crashed coordinator complete (or roll back) while the fleet state
	// they reference is still the state they were logged against.
	if err := s.recoverHandoffs(); err != nil {
		return err
	}
	if err := s.applyFaults(tick); err != nil {
		return err
	}
	var handoffs []core.MigrationRequest
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.DP == nil {
			sh.mu.Unlock()
			continue
		}
		// The sample at a VM's age drives this tick — sample 0 on the first
		// tick after admission, as in the simulator's delta pass — and the
		// next tick reads the one after.
		for id, tr := range sh.dpVMs {
			if tr != nil {
				sh.DP.SetWSS(id, tr.wss())
				tr.age++
			}
		}
		_, _, reqs, err := sh.Tick(tick)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
		handoffs = append(handoffs, reqs...)
	}
	// The simulator's exchange order, so both layers hand off alike.
	sort.Slice(handoffs, func(i, j int) bool { return handoffs[i].Before(handoffs[j]) })
	for _, req := range handoffs {
		if err := s.driveHandoff(s.newIntent(req)); err != nil {
			return err
		}
	}
	s.dpTicks.Add(1)
	return nil
}

// ClusterStats is one shard's admission counters and occupancy.
type ClusterStats struct {
	Cluster     int    `json:"cluster"`
	Name        string `json:"name"`
	Servers     int    `json:"servers"`
	UsedServers int    `json:"used_servers"`
	Placed      int    `json:"placed"`
	Admitted    int64  `json:"admitted"`
	Released    int64  `json:"released"`
	Rejected    int64  `json:"rejected"`
}

// DataPlaneStats aggregates the fleet-wide memory data plane for
// GET /v1/stats: current pool occupancy plus the cumulative mitigation
// and paging volumes across every server's memsim + agent.
type DataPlaneStats struct {
	Enabled       bool    `json:"enabled"`
	Policy        string  `json:"policy,omitempty"`
	Mode          string  `json:"mode,omitempty"`
	Ticks         int64   `json:"ticks"`
	AttachedVMs   int     `json:"attached_vms"`
	PoolGB        float64 `json:"pool_gb"`
	PoolUsedGB    float64 `json:"pool_used_gb"`
	TrimmedGB     float64 `json:"trimmed_gb"`
	ExtendedGB    float64 `json:"extended_gb"`
	MigratedGB    float64 `json:"migrated_gb"`
	HardFaultGB   float64 `json:"hard_fault_gb"`
	SoftFaultGB   float64 `json:"soft_fault_gb"`
	SoftFaultFrac float64 `json:"soft_fault_frac"`
	StolenGB      float64 `json:"stolen_gb"`
	EvictedColdGB float64 `json:"evicted_cold_gb"`
	Contentions   int     `json:"contentions"`
	Trims         int     `json:"trims"`
	Extends       int     `json:"extends"`
	Migrations    int     `json:"migrations"`
	// Migration-landing outcomes (docs/DESIGN.md §10): same-shard
	// landings, cross-shard handoffs, failed (re-landed) migrations, and
	// the pre-copied volume that arrived resident at targets.
	SameShardMigrations  int64   `json:"same_shard_migrations"`
	CrossShardMigrations int64   `json:"cross_shard_migrations"`
	FailedMigrations     int64   `json:"failed_migrations"`
	WarmArrivedGB        float64 `json:"warm_arrived_gb"`
	// PressureRejected counts admissions rejected because no pool in the
	// home cluster could absorb the VM's oversubscribed demand
	// (Config.AdmitPressureFrac).
	PressureRejected int64 `json:"pressure_rejected"`
	// WhatIfBatches and WhatIfCandidates count the what-if rollouts
	// behind admission, migration landing and crash recovery and the
	// feasible cells they scored: each decision builds exactly one
	// rollout over the whole shard (docs/DESIGN.md §14), so
	// batches track decisions while candidates track fleet size ×
	// decisions.
	WhatIfBatches    int64 `json:"whatif_batches"`
	WhatIfCandidates int64 `json:"whatif_candidates"`
	// Failure-domain counters (docs/DESIGN.md §13): applied server
	// crash/recover fault events, VMs evicted by crashes, and their fate
	// (re-admitted elsewhere vs lost — no feasible server remained).
	Crashes     int64 `json:"crashes"`
	Recoveries  int64 `json:"recoveries"`
	EvictedVMs  int64 `json:"evicted_vms"`
	ReplacedVMs int64 `json:"replaced_vms"`
	LostVMs     int64 `json:"lost_vms"`
	// PendingHandoffs is the current depth of the cross-shard handoff
	// intent log — non-zero only while a handoff is mid-protocol (or
	// parked awaiting the next recovery sweep).
	PendingHandoffs int `json:"pending_handoffs"`
}

// AdmitBatchStats counts admission decisions, each its own pass. It keeps
// the shape admission coalescing once reported, for wire compatibility:
// ConflictReplays is always 0.
type AdmitBatchStats struct {
	BatchStats
	ConflictReplays int64 `json:"conflict_replays"`
}

// Stats is a point-in-time snapshot of the service.
type Stats struct {
	Policy string `json:"policy"`
	// Degraded reports that the service is running without a prediction
	// model (training failed or was fault-injected to fail): admissions
	// fall back to fully-guaranteed best-fit and /readyz is not-ready.
	Degraded bool           `json:"degraded"`
	Placed   int            `json:"placed"`
	Clusters []ClusterStats `json:"clusters"`
	// Batch counts predictions and AdmitBatch admission decisions, each
	// its own pass (requests = batches; docs/api.md).
	Batch      BatchStats      `json:"batch"`
	AdmitBatch AdmitBatchStats `json:"admit_batch"`
	Cache      CacheStats      `json:"cache"`
	// Inference is the forests' own count of the prediction work done:
	// cumulative for the cached model, so services sharing a ModelCache
	// share it. rows ÷ admitted VMs is what one admission costs the
	// forests (8 forests × windows per prediction of a fresh VM).
	Inference mlforest.Stats `json:"inference"`
	DataPlane DataPlaneStats `json:"data_plane"`
}

// Stats snapshots admission counters, occupancy, request counts,
// model-cache behaviour and the data-plane aggregates.
func (s *Service) Stats() Stats {
	st := Stats{Policy: s.cfg.Policy.String(), Cache: s.cache.Stats()}
	st.Degraded = s.degraded.Load()
	st.Batch = onePerPass(s.predicts.Load())
	st.AdmitBatch.BatchStats = onePerPass(s.admits.Load())
	if m := s.model.Load(); m != nil {
		st.Inference = m.InferenceStats()
	}
	if s.cfg.DataPlane {
		st.DataPlane.Enabled = true
		st.DataPlane.Policy = s.cfg.MitigationPolicy.String()
		st.DataPlane.Mode = s.cfg.MitigationMode.String()
		st.DataPlane.Ticks = s.dpTicks.Load()
		st.DataPlane.PendingHandoffs = s.pendingHandoffs()
	}
	var totals memsim.Totals
	var counters core.AgentCounters
	for ci, sh := range s.shards {
		cs := ClusterStats{Cluster: ci, Name: s.fleet.Clusters[ci].Name, Servers: s.fleet.Clusters[ci].Servers}
		sh.mu.Lock()
		cs.Admitted, cs.Released, cs.Rejected = sh.admitted, sh.released, sh.rejected
		if sh.Sched != nil {
			cs.Placed = sh.Sched.Placed()
			cs.UsedServers = sh.Sched.UsedServers()
		}
		if sh.DP != nil {
			d, c := &st.DataPlane, sh.Stats
			d.AttachedVMs += sh.DP.Attached()
			d.PoolGB += sh.DP.PoolGB()
			d.PoolUsedGB += sh.DP.PoolUsedGB()
			totals = totals.Add(sh.DP.Totals())
			counters = counters.Add(sh.DP.Counters())
			d.SameShardMigrations += int64(c.SameShardMigrations)
			d.CrossShardMigrations += int64(c.CrossShardMigrations)
			d.FailedMigrations += int64(c.FailedMigrations)
			d.WarmArrivedGB += c.WarmArrivedGB
			d.PressureRejected += sh.pressureRejected
			d.Crashes += int64(c.Crashes)
			d.Recoveries += int64(c.Recoveries)
			d.EvictedVMs += int64(c.EvictedVMs)
			d.ReplacedVMs += int64(c.ReplacedVMs)
			d.LostVMs += int64(c.LostVMs)
			ws := sh.Scorer.Stats()
			d.WhatIfBatches += ws.Batches
			d.WhatIfCandidates += ws.Scored
		}
		sh.mu.Unlock()
		st.Placed += cs.Placed
		st.Clusters = append(st.Clusters, cs)
	}
	if st.DataPlane.Enabled {
		st.DataPlane.TrimmedGB = totals.TrimmedGB
		st.DataPlane.ExtendedGB = totals.ExtendedGB
		st.DataPlane.MigratedGB = totals.MigratedGB
		st.DataPlane.HardFaultGB = totals.HardFaultGB
		st.DataPlane.SoftFaultGB = totals.SoftFaultGB
		st.DataPlane.SoftFaultFrac = totals.SoftFaultFrac()
		st.DataPlane.StolenGB = totals.StolenGB
		st.DataPlane.EvictedColdGB = totals.EvictedColdGB
		st.DataPlane.Contentions = counters.Contentions
		st.DataPlane.Trims = counters.Trims
		st.DataPlane.Extends = counters.Extends
		st.DataPlane.Migrations = counters.Migrations
	}
	return st
}

// Close rejects further requests with ErrClosed. It is idempotent and
// safe to call concurrently with requests: it sets the flag, then takes
// and drops every shard lock once, so a decision already under a lock
// completes before Close returns and every later Admit, Release or Report
// sees the flag when it takes its lock. A prediction that passed the
// closed check finishes on its own goroutine; it reads only the immutable
// model.
func (s *Service) Close() {
	s.closed.Store(true)
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.mu.Unlock()
	}
}

func (s *Service) isClosed() bool { return s.closed.Load() }
