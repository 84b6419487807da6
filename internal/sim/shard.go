package sim

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/timing"
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
	build := cfg.Timings.Start()
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
	cfg.Timings.Since(stageBuild, build)
	arrivals := cfg.Timings.Start()
	arrivalPhase(states, tr, model, cfg.Workers)
	cfg.Timings.Since(stageArrivals, arrivals)
	return states
}

// placedRec tracks one placed VM's incremental-accounting state in 88
// bytes: the delta pass reads this record and, for a sparse VM, its
// current run; a dense VM's samples come from its staged block.
type placedRec struct {
	// last is the utilization whose demand is currently in the server's
	// running total for this VM; quarters is the VM's allocation in
	// quarter units, so code c of kind k is a demand of quarters[k]·c
	// resources.Units, exactly.
	last     timeseries.Codes
	quarters [resources.NumKinds]int32
	// cur is the cursor on the VM's utilization runs, on the run of the
	// last visited tick. A sparse VM's drives the event queue: one pending
	// event per VM, at the next run's start.
	cur timeseries.Cursor
	// id is the VM's id (its index in the trace); srv indexes the shard
	// scheduler's server slice.
	id, srv int32
}

// units returns the demand r's last codes stand for.
func (r *placedRec) units() resources.Units {
	var u resources.Units
	for k, c := range r.last {
		u[k] = int64(r.quarters[k]) * int64(c)
	}
	return u
}

// wss returns the working set r's last codes stand for, in GB: the
// allocation times the memory code's fraction, the bits serve computes
// from the same sample.
func (r *placedRec) wss() float64 {
	return float64(r.quarters[resources.Memory]) / 4 * timeseries.Frac(r.last[resources.Memory])
}

// denseBlockLen is how many ticks of samples a dense record stages at a
// time (32 measured best of 8, 16 and 32 on the capacity preset).
const denseBlockLen = 32

// denseBlock stages a dense record's codes for up to denseBlockLen ticks:
// v[i] is the utilization at trace sample from+i, for i < n. n == 0 is
// the empty block a record starts with.
type denseBlock struct {
	from, n int32
	v       [denseBlockLen]timeseries.Codes
}

// codes returns record r's codes at trace sample t, moving r's cursor to
// t. When t lies past the staged samples it refills the block from the
// cursor in one sequential copy.
func (b *denseBlock) codes(r *placedRec, t int) timeseries.Codes {
	if i := t - int(b.from); i < int(b.n) {
		r.cur.SeekInto(t, nil)
		return b.v[i]
	}
	b.from, b.n = int32(t), int32(r.cur.SeekInto(t, b.v[:]))
	return b.v[0]
}

// migRequest pairs a cross-shard migration request with the trace VM it
// moves, so the destination shard can keep replaying its utilization
// and schedule its departure. The run cursor rides along so the
// destination's event queue resumes where the source's left off.
type migRequest struct {
	core.MigrationRequest
	vm  *trace.VM
	cur timeseries.Cursor
}

// shardState is one shard's live replay state. It persists across ticks
// so Run can advance every shard one 5-minute sample in parallel, apply
// the cross-shard migration exchange at the boundary, and continue. All
// mutation is single-threaded: inside step by the shard's worker, inside
// the add/remove helpers by the serial exchange.
type shardState struct {
	sh     *core.Shard
	events []event
	tr     *trace.Trace
	cfg    Config
	sr     *shardResult

	// demand[i] is server i's running demand and cpuLimit[i] its CPU
	// contention threshold, in resources.Units: exact, order-free sums.
	servers  []*scheduler.ServerState
	demand   []resources.Units
	cpuLimit []int64
	recs     []placedRec
	pos      []int32 // VM ID -> index into recs, -1 when untracked
	ei       int

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
	// cursors[a] are the a-th arrival's prediction and run cursor; ai is
	// the next slot arrive consumes. judged lists the placed,
	// oversubscribed VMs whose outcomes judgePhase computes.
	preds   []coachvm.Prediction
	oks     []bool
	cursors []timeseries.Cursor
	ai      int
	judged  []judgement

	// dpRes accumulates the shard's data-plane result (nil unless
	// Config.DataPlane); obs[i] caches steady server i's per-tick
	// histogram contribution.
	dpRes *DataPlaneResult
	obs   []steadyObs

	// laps times the tick's stages on the shard's worker (nil unless
	// Config.Timings).
	laps *timing.Laps

	// Event state. queue holds one pending utilization-change event per
	// placed sparse VM; slots collects the sparse VM ids due at the next
	// delta pass without one — just placed, re-admitted or immigrated —
	// (by id, not record index: crash evictions can swap-remove records
	// between a slot's append and the delta pass), and slotBits marks
	// their resolved record positions, all zero between ticks. A dense VM
	// (every sample its own run) is due every tick until its last sample:
	// dense marks its record position instead of the queue, and blocks
	// holds its staged samples (nil for a sparse record; spare recycles
	// removed records' blocks).
	// Contention is settled incrementally: violCPU / violMem mirror each
	// server's contended-or-not state with running counts, and dirty
	// lists the servers whose demand, backing or population changed this
	// tick and need their flags re-derived.
	queue     *eventQueue
	slots     []int
	slotBits  []uint64
	dense     []uint64
	blocks    []*denseBlock
	spare     []*denseBlock
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
	st.demand = make([]resources.Units, len(st.servers))
	st.cpuLimit = make([]int64, len(st.servers))
	for i, srv := range st.servers {
		st.cpuLimit[i] = resources.ToUnit(cpuContentionFrac * srv.Server.Capacity()[resources.CPU])
	}
	st.queue = newEventQueue(cfg.TrainUpTo, tr.Horizon)
	st.violCPU = make([]bool, len(st.servers))
	st.violMem = make([]bool, len(st.servers))
	st.dirtyFlag = make([]bool, len(st.servers))
	st.laps = cfg.Timings.NewLaps()
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

// step replays one evaluation tick t: events, the incremental demand
// delta pass, the data-plane tick with migration resolution, and the
// contention counters. It is the single-threaded hot loop; Run schedules
// one step per shard per tick on the worker gang.
//
// Contention is accounted incrementally: each placed VM's current demand
// contribution is kept in its record and in a running per-server demand
// total in resources.Units, updated on arrival/departure/migration and by
// a per-tick delta pass that touches only VMs whose utilization sample
// changed — O(placed deltas + occupied servers) per tick instead of a
// full rebuild. Integer sums are exact, so the totals do not depend on
// the order of the updates.
func (st *shardState) step(t int) error {
	start := st.laps.Start()
	if err := st.arrive(t); err != nil {
		return err
	}
	return st.advance(t, start)
}

// arrive applies the first half of tick t: departures and arrivals,
// which decide every admission of the tick.
func (st *shardState) arrive(t int) error {
	// Migration-injected departures first: like the event stream's
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
		pred, ok := st.preds[a], st.oks[a]
		// Cleared slots keep departed VMs' predictions collectable.
		st.preds[a] = coachvm.Prediction{}
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
		// The new record's demand applies at this tick's delta pass.
		st.track(ev.vm, srv, st.cursors[a])
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

// advance applies the second half of tick t: the fault events due, the
// demand delta pass, the data-plane tick with migration resolution, and
// the contention counters. start is the laps reading step took before
// arrive, so the fault step's time counts with the tick's placements.
func (st *shardState) advance(t int, start int64) error {
	// Faults after the tick's admissions, as in serve's data-plane tick:
	// a crash evicts what this tick placed too, and the re-admissions'
	// demand joins this tick's delta pass.
	if err := st.applyFaults(t); err != nil {
		return err
	}
	lap := st.laps.Lap(stagePlacement, start)
	st.eventDeltaPass(t)
	lap = st.laps.Lap(stageDeltaPass, lap)
	if st.sh.DP != nil {
		if err := st.dataPlaneTick(t - st.cfg.TrainUpTo); err != nil {
			return err
		}
		lap = st.laps.Lap(stageDataPlane, lap)
	}
	st.sr.usedByTick[t-st.cfg.TrainUpTo] = st.usedServers()
	st.settleContention()
	st.laps.Lap(stageContention, lap)
	return nil
}

// eventDeltaPass is the demand pass: only dense VMs, sparse VMs with a
// pending change event (popped from the calendar queue), and VMs placed,
// re-admitted or immigrated since the last pass are visited. Slots carry
// VM ids and resolve to record positions here — a crash eviction
// swap-removes records mid-tick, so positions captured earlier could go
// stale — and each position sets its bit in slotBits, which the dense
// bits join. Walking the set bits word by word visits the positions
// ascending and once each (a re-admitted VM whose stale queue event also
// popped sets the same bit twice): the order a full pass over st.recs
// takes, with the same cur != last guard, so the working sets it drives
// are those of visiting every record — a record skipped here starts no
// run at this tick, and spurious events for unchanged demand no-op on the
// guard. A changed visit adds quarters × Δcode per kind to the server's
// total, exactly. A dense record reads its codes from its staged block,
// which touches the trace once per block, not per tick.
func (st *shardState) eventDeltaPass(t int) {
	// st.slots already holds the sparse VMs tracked since the last pass.
	st.slots = st.queue.PopDue(t, st.slots)
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
		word |= st.dense[w]
		if word == 0 {
			continue
		}
		st.slotBits[w] = 0
		for ; word != 0; word &= word - 1 {
			applied++
			p := w*64 + bits.TrailingZeros64(word)
			r, b := &st.recs[p], st.blocks[p]
			var cur timeseries.Codes
			if b != nil {
				cur = b.codes(r, t)
			} else {
				cur = r.cur.SeekCodes(t)
			}
			if cur != r.last {
				d := &st.demand[r.srv]
				for k := range d {
					d[k] += int64(r.quarters[k]) * (int64(cur[k]) - int64(r.last[k]))
				}
				r.last = cur
				st.touchServer(int(r.srv))
				if st.sh.DP != nil {
					st.sh.DP.SetWSS(int(r.id), r.wss())
				}
			}
			// A sparse VM's next run start is its one pending event (Push
			// drops starts past the horizon); a dense VM stays due until
			// its last sample.
			next, ok := r.cur.Next()
			switch {
			case b == nil && ok:
				st.queue.Push(next, int(r.id))
			case b != nil && !ok:
				st.dense[w] &^= 1 << (p % 64)
			}
		}
	}
	if st.cfg.VisitCounter != nil {
		atomic.AddInt64(st.cfg.VisitCounter, int64(applied))
	}
	st.slots = st.slots[:0]
}

// usedServers is the shard's count of servers hosting a VM, which its
// scheduler keeps (zero for a shard without servers).
func (st *shardState) usedServers() int {
	if st.sh.Sched == nil {
		return 0
	}
	return st.sh.Sched.UsedServers()
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
		occupied := st.servers[i].Used()
		cpu := occupied && st.demand[i][resources.CPU] > st.cpuLimit[i]
		mem := occupied && st.demand[i][resources.Memory] > st.servers[i].Pool.BackedUnits()[resources.Memory]
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
	st.sr.serverTicks += st.usedServers()
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
		st.outbox = append(st.outbox, migRequest{MigrationRequest: r, vm: &st.tr.VMs[rec.id], cur: rec.cur})
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
	last := r.units()
	st.demand[p.From] = st.demand[p.From].Sub(last)
	st.demand[p.To] = st.demand[p.To].Add(last)
	r.srv = int32(p.To)
	st.touchServer(p.From)
	st.touchServer(p.To)
}

// track adds a record for vm, placed on server srv with run cursor cur,
// to the incremental accounting and makes it due at the next delta pass,
// which folds its demand in: a dense VM through its bit, with an empty
// block that pass refills from cur, a sparse one through its slot.
func (st *shardState) track(vm *trace.VM, srv int, cur timeseries.Cursor) {
	p := len(st.recs)
	st.pos[vm.ID] = int32(p)
	q, _ := vm.Alloc.Quarters() // prepare checked every allocation
	st.recs = append(st.recs, placedRec{quarters: q, cur: cur, id: int32(vm.ID), srv: int32(srv)})
	if p/64 == len(st.dense) {
		st.dense = append(st.dense, 0)
		st.slotBits = append(st.slotBits, 0)
	}
	var b *denseBlock
	if vm.Runs.Offsets() == nil {
		if n := len(st.spare); n > 0 {
			b, st.spare = st.spare[n-1], st.spare[:n-1]
			b.from, b.n = 0, 0
		} else {
			b = new(denseBlock)
		}
		st.dense[p/64] |= 1 << (p % 64)
	} else {
		st.slots = append(st.slots, vm.ID)
	}
	st.blocks = append(st.blocks, b)
	st.touchServer(srv)
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
	st.demand[r.srv] = st.demand[r.srv].Sub(r.units())
	st.touchServer(int(r.srv))
	// Swap-remove: the last record, its block and its dense bit move to
	// p; the removed record's block is recycled.
	if b := st.blocks[p]; b != nil {
		st.spare = append(st.spare, b)
	}
	last := len(st.recs) - 1
	st.recs[p], st.blocks[p] = st.recs[last], st.blocks[last]
	st.pos[st.recs[p].id] = p
	st.recs, st.blocks = st.recs[:last], st.blocks[:last]
	st.pos[vmID] = -1
	pw, pb, lw, lb := p/64, p%64, last/64, last%64
	st.dense[pw] = st.dense[pw]&^(1<<pb) | (st.dense[lw]>>lb&1)<<pb
	st.dense[lw] &^= 1 << lb
	return true
}

// addImmigrated registers a cross-shard-migrated VM in this shard's
// accounting after the exchange committed it: a fresh record, which the
// next tick's delta pass folds in from the carried run cursor, plus an
// injected departure event at the VM's end-of-life.
func (st *shardState) addImmigrated(rq migRequest, server int) {
	st.track(rq.vm, server, rq.cur)
	st.insertExtra(event{sample: rq.vm.End, arrival: false, vm: rq.vm})
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
