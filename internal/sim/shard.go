package sim

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

// event is one VM arrival or departure in a shard's replay stream.
type event struct {
	sample  int
	arrival bool
	vm      *trace.VM
}

// shardResult is the per-shard slice of Result, merged by merge().
type shardResult struct {
	requested      int
	placed         int
	rejected       int
	oversubscribed int
	serverTicks    int
	cpuViolations  int
	memViolations  int
	// usedByTick[t-TrainUpTo] is the shard's occupied-server count at
	// tick t; merge sums these element-wise before taking the fleet peak,
	// since per-shard peaks at different ticks must not be added.
	usedByTick []int
	outcomes   []VMOutcome
	// dataPlane carries the shard's fleet-memory aggregates (nil when
	// Config.DataPlane is off).
	dataPlane *DataPlaneResult
	// faults accumulates the shard's failure-domain counters (all zero
	// when no fault schedule is active).
	faults FaultResult
}

// newShardStates wraps each cluster's core.Shard (scheduler, plus data
// plane and migration engine when Config.DataPlane is set; built by
// core.FleetConfig.NewShards) in a replay state holding the event stream
// of the VMs homed there at the start of the evaluation period, then
// fills every shard's arrival slots (arrivalPhase). Clusters never share
// VMs in the scheduler, so shards exchange no state while ticking and
// replay concurrently; with cross-shard migration enabled they
// additionally trade migrated VMs at sample boundaries through the
// deterministic exchange step (docs/DESIGN.md §10).
func newShardStates(shards []*core.Shard, tr *trace.Trace, model *predict.LongTerm, cfg Config) []*shardState {
	states := make([]*shardState, len(shards))
	for i, sh := range shards {
		states[i] = newShardState(sh, tr, cfg)
	}
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.End <= cfg.TrainUpTo {
			continue
		}
		st := states[vm.HomeShard(len(states))]
		st.events = append(st.events,
			event{sample: max(vm.Start, cfg.TrainUpTo), arrival: true, vm: vm},
			event{sample: vm.End, arrival: false, vm: vm})
	}
	for _, st := range states {
		evs := st.events
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].sample != evs[j].sample {
				return evs[i].sample < evs[j].sample
			}
			// Departures before arrivals at the same tick frees capacity first.
			return !evs[i].arrival && evs[j].arrival
		})
	}
	arrivalPhase(states, tr, model, cfg.Workers)
	return states
}

// placedRec tracks one placed VM's incremental-accounting state.
type placedRec struct {
	vm  *trace.VM
	srv int // index into the shard scheduler's server slice
	// last is the demand vector currently accumulated into the server's
	// running total for this VM.
	last resources.Vector
	// changes and nextCh drive the event queue: changes is the VM's
	// utilization change-point list (trace.VM.ChangePoints, computed once
	// by the arrival phase) and nextCh the cursor of the next unscheduled
	// one.
	changes []int32
	nextCh  int
}

// migRequest pairs a cross-shard migration request with the trace VM it
// moves, so the destination shard can keep replaying its utilization
// series and schedule its departure. The change-point cursor rides along
// so the destination's event queue resumes where the source's left off
// without recomputing the list.
type migRequest struct {
	core.MigrationRequest
	vm      *trace.VM
	changes []int32
	nextCh  int
}

// shardState is one shard's live replay state. It persists across ticks
// so Run can advance every shard one 5-minute sample in parallel, apply
// the cross-shard migration exchange at the boundary, and continue —
// replacing the former run-to-completion loop. All mutation is
// single-threaded: inside step by the shard's worker, inside the
// add/remove helpers by the serial exchange.
type shardState struct {
	sh     *core.Shard
	events []event
	tr     *trace.Trace
	cfg    Config
	sr     *shardResult

	servers  []*scheduler.ServerState
	demand   []resources.Vector
	vmCount  []int
	cpuLimit []float64
	recs     []placedRec
	pos      []int32 // VM ID -> index into recs, -1 when untracked
	used     int
	ei       int
	zero     resources.Vector

	// extra holds migration-injected departure events for VMs that moved
	// in from another shard, kept sorted by (sample, vm.ID); xi is the
	// cursor. Their original departure events still sit in the source
	// shard's stream, where they no-op (the VM is no longer tracked
	// there).
	extra []event
	xi    int
	// outbox collects this tick's cross-shard migration requests for the
	// sample-boundary exchange.
	outbox []migRequest

	// Arrival slots, filled by arrivalPhase: preds[a], oks[a] and
	// changes[a] are the a-th arrival's prediction and change points; ai
	// is the next slot arrive consumes. judged lists the placed,
	// oversubscribed VMs whose outcomes judgePhase computes.
	preds   []coachvm.Prediction
	oks     []bool
	changes [][]int32
	ai      int
	judged  []judgement

	// dpRes accumulates the shard's data-plane result (nil unless
	// Config.DataPlane); obs[i] caches steady server i's per-tick
	// histogram contribution.
	dpRes *DataPlaneResult
	obs   []steadyObs

	// fEvents is the shard's slice of the compiled fault schedule (nil
	// without faults); fi is the applied-events cursor.
	fEvents []fault.Event
	fi      int

	// Event state. queue holds one pending utilization-change event per
	// placed VM; slots and slotBits are per-tick scratch — slots collects
	// the VM ids due a demand re-sync (by id, not record index: crash
	// evictions can swap-remove records between a slot's append and the
	// delta pass), slotBits marks their resolved record positions and is
	// all zero between ticks.
	// Contention is settled incrementally: violCPU / violMem mirror each
	// server's contended-or-not state with running counts, and dirty
	// lists the servers whose demand, backing or population changed this
	// tick and need their flags re-derived.
	queue     *eventQueue
	slots     []int
	slotBits  []uint64
	violCPU   []bool
	violMem   []bool
	cpuViol   int
	memViol   int
	dirty     []int
	dirtyFlag []bool
}

// newShardState builds a shard's replay state at the start of the
// evaluation period; newShardStates fills in its event stream and
// arrival slots.
func newShardState(sh *core.Shard, tr *trace.Trace, cfg Config) *shardState {
	ticks := tr.Horizon - cfg.TrainUpTo
	st := &shardState{
		sh:  sh,
		tr:  tr,
		cfg: cfg,
		sr:  &shardResult{usedByTick: make([]int, ticks)},
		// VM ids are indices into tr.VMs (Run checks), so one flat slice
		// indexes every VM the shard can see.
		pos: make([]int32, len(tr.VMs)),
	}
	for i := range st.pos {
		st.pos[i] = -1
	}
	if sh.Sched != nil {
		st.servers = sh.Sched.Servers()
	}
	if cfg.DataPlane {
		st.dpRes = newDataPlaneResult(cfg)
		st.obs = make([]steadyObs, len(st.servers))
	}
	st.demand = make([]resources.Vector, len(st.servers))
	st.vmCount = make([]int, len(st.servers))
	st.cpuLimit = make([]float64, len(st.servers))
	for i, srv := range st.servers {
		st.cpuLimit[i] = cpuContentionFrac * srv.Server.Capacity()[resources.CPU]
	}
	st.queue = newEventQueue(cfg.TrainUpTo, tr.Horizon)
	st.violCPU = make([]bool, len(st.servers))
	st.violMem = make([]bool, len(st.servers))
	st.dirtyFlag = make([]bool, len(st.servers))
	st.fEvents = cfg.Faults.ForShard(sh.Index)
	return st
}

// touchServer marks a server's contention flags stale: its demand,
// backed capacity or population changed this tick.
func (st *shardState) touchServer(srv int) {
	if st.dirtyFlag[srv] {
		return
	}
	st.dirtyFlag[srv] = true
	st.dirty = append(st.dirty, srv)
}

// scheduleNext queues r's next utilization-change event after tick t.
// The cursor is left on the scheduled change point; when that event fires
// the advance loop steps past it, so each VM has at most one pending
// event. Push bounds-checks the horizon, so late change points of VMs
// outliving the trace drop out naturally.
func (st *shardState) scheduleNext(r *placedRec, t int) {
	rel := t - r.vm.Start
	for r.nextCh < len(r.changes) && int(r.changes[r.nextCh]) <= rel {
		r.nextCh++
	}
	if r.nextCh < len(r.changes) {
		st.queue.Push(r.vm.Start+int(r.changes[r.nextCh]), r.vm.ID)
	}
}

// step replays one evaluation tick t: events, the incremental demand
// delta pass, the data-plane tick with migration resolution, and the
// contention counters. It is the single-threaded hot loop; Run schedules
// one step per shard per tick (or whole shards when no exchange is
// possible) on the worker pool.
//
// Contention is accounted incrementally: each placed VM's current demand
// contribution is kept in its record and in a running per-server demand
// vector, updated on arrival/departure/migration and by a per-tick delta
// pass that touches only VMs whose utilization sample changed — O(placed
// deltas + occupied servers) per tick instead of a full rebuild. All
// updates happen in deterministic (event/slice) order, so float sums are
// bit-reproducible across runs and worker counts.
func (st *shardState) step(t int) error {
	if err := st.arrive(t); err != nil {
		return err
	}
	return st.advance(t)
}

// arrive applies the first half of tick t: fault events, departures and
// arrivals, which decide every placement of the tick.
func (st *shardState) arrive(t int) error {
	// Fault events first: a server crashing this tick evicts its VMs
	// before the tick's departures fire and its recovered capacity (or
	// its absence) shapes this tick's placements.
	if st.fEvents != nil {
		if err := st.applyFaults(t); err != nil {
			return err
		}
	}
	// Migration-injected departures next: like the event stream's
	// departures-before-arrivals discipline, they free capacity before
	// this tick's arrivals place.
	for st.xi < len(st.extra) && st.extra[st.xi].sample == t {
		st.depart(st.extra[st.xi].vm.ID)
		st.xi++
	}
	for st.ei < len(st.events) && st.events[st.ei].sample == t {
		ev := st.events[st.ei]
		st.ei++
		if !ev.arrival {
			st.depart(ev.vm.ID)
			continue
		}
		st.sr.requested++
		a := st.ai
		st.ai++
		pred, ok, changes := st.preds[a], st.oks[a], st.changes[a]
		// Cleared slots keep departed VMs' predictions collectable.
		st.preds[a], st.changes[a] = coachvm.Prediction{}, nil
		cvm, err := scheduler.BuildCVM(st.cfg.Policy, ev.vm.ID, ev.vm.Alloc, pred, ok, st.cfg.Windows)
		if err != nil {
			return err
		}
		srv := -1
		if st.sh.Sched != nil {
			if srv, err = st.sh.Admit(cvm); err != nil {
				return err
			}
		}
		if srv < 0 {
			st.sr.rejected++
			continue
		}
		st.sr.placed++
		// The new record's demand applies this tick via its slot;
		// scheduleNext (in the delta pass) queues the rest of its life.
		st.track(placedRec{vm: ev.vm, srv: srv, changes: changes})
		st.slots = append(st.slots, ev.vm.ID)
		if ok && st.cfg.Policy != scheduler.PolicyNone {
			st.sr.oversubscribed++
			st.judged = append(st.judged, judgement{ev.vm, cvm})
		}
	}
	return nil
}

// depart releases a departing VM. It is a no-op when the VM was rejected
// on arrival, lost to a crash, or emigrated to another shard (its
// departure fires there instead).
func (st *shardState) depart(vmID int) {
	if st.removeTracked(vmID) {
		st.sh.Release(vmID)
	}
}

// advance applies the second half of tick t: the demand delta pass, the
// data-plane tick with migration resolution, and the contention counters.
func (st *shardState) advance(t int) error {
	st.eventDeltaPass(t)
	if st.sh.DP != nil {
		if err := st.dataPlaneTick(t - st.cfg.TrainUpTo); err != nil {
			return err
		}
	}
	st.sr.usedByTick[t-st.cfg.TrainUpTo] = st.used
	st.settleContention()
	return nil
}

// eventDeltaPass is the demand pass: only VMs with a pending change
// event (popped from the calendar queue), placed this tick, or
// re-admitted by a crash are visited. Slots carry VM ids and resolve to
// record positions here — a crash eviction swap-removes records
// mid-tick, so positions captured earlier could go stale — and each
// position sets its bit in slotBits. Walking the set bits word by word
// visits the positions ascending and once each (a re-admitted VM whose
// stale queue event also popped sets the same bit twice): the order a
// full pass over st.recs takes, with the same cur != last guard, so the
// float accumulation into st.demand is bit-identical to visiting every
// record — a record skipped here has no change point at this offset,
// and spurious events for unchanged demand no-op on the guard.
func (st *shardState) eventDeltaPass(t int) {
	// st.slots already holds this tick's placements and re-admissions.
	st.slots = st.queue.PopDue(t, st.slots)
	if words := (len(st.recs) + 63) / 64; words > len(st.slotBits) {
		st.slotBits = append(st.slotBits, make([]uint64, words-len(st.slotBits))...)
	}
	for _, id := range st.slots {
		// An id with pos -1 is a stale event: the VM departed, emigrated
		// to another shard, or was lost to a crash. Ids are never reused,
		// so pos is a complete filter and events need no cancellation.
		if p := st.pos[id]; p >= 0 {
			st.slotBits[p/64] |= 1 << (p % 64)
		}
	}
	applied := 0
	for w, word := range st.slotBits {
		if word == 0 {
			continue
		}
		st.slotBits[w] = 0
		for ; word != 0; word &= word - 1 {
			applied++
			r := &st.recs[w*64+bits.TrailingZeros64(word)]
			cur := r.vm.DemandAt(t)
			if cur != r.last {
				st.demand[r.srv] = st.demand[r.srv].Add(cur.Sub(r.last))
				r.last = cur
				st.touchServer(r.srv)
				if st.sh.DP != nil {
					st.sh.DP.SetWSS(r.vm.ID, cur[resources.Memory])
				}
			}
			st.scheduleNext(r, t)
		}
	}
	if st.cfg.VisitCounter != nil {
		atomic.AddInt64(st.cfg.VisitCounter, int64(applied))
	}
	st.slots = st.slots[:0]
}

// settleContention is the per-tick contention accounting: servers whose
// demand, backed capacity or population changed this tick were marked
// dirty; re-derive just their contended/not flags and keep running
// counts. An untouched server's inputs are all unchanged — every
// mutation path (delta, placement, removal, migration landing,
// exchange) marks the server — so its flags from the previous tick
// still hold and the counts equal a scan of every server's.
func (st *shardState) settleContention() {
	for _, i := range st.dirty {
		st.dirtyFlag[i] = false
		occupied := st.vmCount[i] > 0
		cpu := occupied && st.demand[i][resources.CPU] > st.cpuLimit[i]
		mem := occupied && st.demand[i][resources.Memory] > st.servers[i].Pool.Backed()[resources.Memory]+1e-9
		if cpu != st.violCPU[i] {
			st.violCPU[i] = cpu
			if cpu {
				st.cpuViol++
			} else {
				st.cpuViol--
			}
		}
		if mem != st.violMem[i] {
			st.violMem[i] = mem
			if mem {
				st.memViol++
			} else {
				st.memViol--
			}
		}
	}
	st.dirty = st.dirty[:0]
	st.sr.serverTicks += st.used
	st.sr.cpuViolations += st.cpuViol
	st.sr.memViolations += st.memViol
}

// dataPlaneTick advances the shard's servers one sample and resolves
// completed live migrations through the shard's migration engine:
// same-shard landings move bookkeeping, memory and the incremental
// accounting together; cross-shard requests go to the outbox for the
// sample-boundary exchange. t is the 0-based evaluation tick.
func (st *shardState) dataPlaneTick(t int) error {
	frames, plans, reqs, err := st.sh.Tick(t)
	if err != nil {
		return err
	}
	st.observeSparse(frames)
	for _, p := range plans {
		st.applyPlan(p)
	}
	for _, r := range reqs {
		rec := &st.recs[st.pos[r.VMID]]
		st.outbox = append(st.outbox, migRequest{
			MigrationRequest: r,
			vm:               rec.vm,
			changes:          rec.changes,
			nextCh:           rec.nextCh,
		})
	}
	st.dpRes.mark(t, st.sh.DP.Counters())
	return nil
}

// applyPlan folds a landed migration into the incremental accounting:
// the VM's demand contribution moves from its old server's running total
// to the new one's. A re-landed VM never moved.
func (st *shardState) applyPlan(p core.MigrationPlan) {
	if p.Relanded {
		return
	}
	r := &st.recs[st.pos[p.VMID]]
	st.demand[p.From] = st.demand[p.From].Sub(r.last)
	st.vmCount[p.From]--
	if st.vmCount[p.From] == 0 {
		st.used--
		st.demand[p.From] = st.zero
	}
	if st.vmCount[p.To] == 0 {
		st.used++
	}
	st.vmCount[p.To]++
	st.demand[p.To] = st.demand[p.To].Add(r.last)
	r.srv = p.To
	st.touchServer(p.From)
	st.touchServer(p.To)
}

// track adds a placed VM's record to the incremental accounting; its
// demand folds in at the next delta pass that visits it.
func (st *shardState) track(rec placedRec) {
	if st.vmCount[rec.srv] == 0 {
		st.used++
	}
	st.vmCount[rec.srv]++
	st.pos[rec.vm.ID] = int32(len(st.recs))
	st.recs = append(st.recs, rec)
	st.touchServer(rec.srv)
}

// removeTracked drops a VM from the incremental accounting. It returns
// false when the shard does not track the VM — rejected on arrival, lost,
// or emigrated.
func (st *shardState) removeTracked(vmID int) bool {
	p := st.pos[vmID]
	if p < 0 {
		return false
	}
	r := st.recs[p]
	st.demand[r.srv] = st.demand[r.srv].Sub(r.last)
	st.vmCount[r.srv]--
	if st.vmCount[r.srv] == 0 {
		st.used--
		// Reset to cancel residual float drift from the incremental adds
		// and subtracts.
		st.demand[r.srv] = st.zero
	}
	st.touchServer(r.srv)
	last := len(st.recs) - 1
	st.recs[p] = st.recs[last]
	st.pos[st.recs[p].vm.ID] = p
	st.recs = st.recs[:last]
	st.pos[vmID] = -1
	return true
}

// addImmigrated registers a cross-shard-migrated VM in this shard's
// accounting after the exchange committed it: a fresh record (the next
// tick's delta pass folds its demand in) plus an injected departure
// event at the VM's end-of-life.
func (st *shardState) addImmigrated(rq migRequest, server int) {
	st.track(placedRec{
		vm: rq.vm, srv: server,
		changes: rq.changes, nextCh: rq.nextCh,
	})
	st.insertExtra(event{sample: rq.vm.End, arrival: false, vm: rq.vm})
	// Re-sync on the very next tick; the fired event's scheduleNext then
	// resumes the carried change-point cursor.
	st.queue.Push(rq.Tick+st.cfg.TrainUpTo+1, rq.VMID)
}

// insertExtra queues a migration-injected event, keeping the pending
// suffix sorted by (sample, vm.ID) so replay order stays deterministic.
func (st *shardState) insertExtra(ev event) {
	i := st.xi
	for i < len(st.extra) &&
		(st.extra[i].sample < ev.sample ||
			(st.extra[i].sample == ev.sample && st.extra[i].vm.ID < ev.vm.ID)) {
		i++
	}
	st.extra = append(st.extra, event{})
	copy(st.extra[i+1:], st.extra[i:])
	st.extra[i] = ev
}

// finish seals the shard's result after the last tick: end-of-run data
// plane totals and the counters the core.Shard kept.
func (st *shardState) finish() *shardResult {
	cs, f := st.sh.Stats, &st.sr.faults
	f.Crashes, f.Recoveries = cs.Crashes, cs.Recoveries
	f.EvictedVMs, f.ReplacedVMs, f.LostVMs = cs.EvictedVMs, cs.ReplacedVMs, cs.LostVMs
	if d, dp := st.dpRes, st.sh.DP; d != nil && dp != nil {
		d.Servers, d.Totals, d.Counters = len(dp.Servers()), dp.Totals(), dp.Counters()
		d.SameShardMigrations, d.CrossShardMigrations = cs.SameShardMigrations, cs.CrossShardMigrations
		d.FailedMigrations, d.WarmArrivedGB = cs.FailedMigrations, cs.WarmArrivedGB
	}
	st.sr.dataPlane = st.dpRes
	return st.sr
}
