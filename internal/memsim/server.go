package memsim

import (
	"fmt"
	"slices"
)

// TickStats reports one VM's memory behaviour over one simulated tick.
type TickStats struct {
	// MeanNs is the expected access latency over the tick.
	MeanNs float64
	// P99Ns is the 99th-percentile access latency (mixture quantile).
	P99Ns float64
	// FaultGB is the memory hard-faulted in from the backing store this
	// tick.
	FaultGB float64
	// StolenGB is working-set memory forcibly evicted from this VM due to
	// pool pressure (thrashing).
	StolenGB float64
	// PPA, PVA, PSoft, PHard are the access-mix probabilities: PA hit,
	// resident VA hit, demand-zero soft fault, backing-store hard fault.
	PPA, PVA, PSoft, PHard float64
}

// PFault returns the total faulting probability (soft + hard).
func (t TickStats) PFault() float64 { return t.PSoft + t.PHard }

// Slowdown returns the mean-latency slowdown relative to a fully
// PA-backed VM.
func (t TickStats) Slowdown(cfg Config) float64 {
	if cfg.PAAccessNs <= 0 {
		return 1
	}
	return t.MeanNs / cfg.PAAccessNs
}

// TickFrame holds one tick's per-VM stats in the server's deterministic
// (ascending VM id) order at the start of the tick. The frame and its
// backing arrays are owned by the server and reused on the next Tick:
// callers must copy anything they keep. Ticking is allocation-free in
// steady state, and every consumer (agent, fleet simulator) iterates in a
// fixed order, so float accumulations over the frame are bit-reproducible.
type TickFrame struct {
	ids   []int
	vms   []*VMMem // the member at each position; nil once it departed
	stats []TickStats
}

// Len returns the number of VMs present at the start of the tick.
func (f *TickFrame) Len() int { return len(f.ids) }

// ID returns the VM id at frame position i.
func (f *TickFrame) ID(i int) int { return f.ids[i] }

// At returns the stats at frame position i. For a VM that departed
// mid-tick (completed live migration) the entry still holds the latency
// mixture computed at tick start; check Departed.
func (f *TickFrame) At(i int) TickStats { return f.stats[i] }

// Departed reports whether the VM at position i left the server mid-tick
// (its live migration completed).
func (f *TickFrame) Departed(i int) bool { return f.vms[i] == nil }

// Get returns the stats for VM id, or the zero TickStats when the VM was
// absent at the start of the tick or departed mid-tick.
func (f *TickFrame) Get(id int) TickStats {
	st, _ := f.Lookup(id)
	return st
}

// Lookup is Get with an explicit presence report.
func (f *TickFrame) Lookup(id int) (TickStats, bool) {
	i := indexOf(f.ids, id)
	if i < 0 || f.vms[i] == nil {
		return TickStats{}, false
	}
	return f.stats[i], true
}

// indexOf returns id's position in the ascending ids, or -1.
func indexOf(ids []int, id int) int {
	if i, ok := slices.BinarySearch(ids, id); ok {
		return i
	}
	return -1
}

// reset re-points the frame at the server's members, zeroing stats in
// place.
func (f *TickFrame) reset(order []int, members []*VMMem) {
	n := len(order)
	if cap(f.ids) < n {
		f.ids = make([]int, n)
		f.vms = make([]*VMMem, n)
		f.stats = make([]TickStats, n)
	}
	f.ids = f.ids[:n]
	f.vms = f.vms[:n]
	f.stats = f.stats[:n]
	copy(f.ids, order)
	copy(f.vms, members)
	clear(f.stats)
}

// depart marks id as gone mid-tick.
func (f *TickFrame) depart(id int) {
	if i := indexOf(f.ids, id); i >= 0 {
		f.vms[i] = nil
	}
}

// Totals are the server's cumulative data-plane volumes since creation:
// what the mitigation mechanisms moved and what the paging machinery paid.
// The fleet simulator sums them across servers into per-policy metrics.
type Totals struct {
	// TrimmedGB is cold memory written to the backing store by trim
	// operations (agent-initiated, StartTrim).
	TrimmedGB float64
	// ExtendedGB is unallocated server memory added to the pool.
	ExtendedGB float64
	// MigratedGB is the volume copied by completed live migrations.
	MigratedGB float64
	// HardFaultGB is memory paged in from the backing store.
	HardFaultGB float64
	// SoftFaultGB is demand-zero memory materialized on first touch
	// (including eagerly backed DMA-pinned ranges).
	SoftFaultGB float64
	// StolenGB is working-set memory blindly evicted under pool pressure
	// (the thrashing the None policy suffers).
	StolenGB float64
	// EvictedColdGB is cold memory blindly evicted under pool pressure
	// (hypervisor demand paging, not agent trims).
	EvictedColdGB float64
}

// Add returns the element-wise sum of two Totals.
func (t Totals) Add(o Totals) Totals {
	t.TrimmedGB += o.TrimmedGB
	t.ExtendedGB += o.ExtendedGB
	t.MigratedGB += o.MigratedGB
	t.HardFaultGB += o.HardFaultGB
	t.SoftFaultGB += o.SoftFaultGB
	t.StolenGB += o.StolenGB
	t.EvictedColdGB += o.EvictedColdGB
	return t
}

// FaultGB returns the total faulted volume (soft + hard).
func (t Totals) FaultGB() float64 { return t.HardFaultGB + t.SoftFaultGB }

// SoftFaultFrac returns the share of faulted volume served by demand-zero
// soft faults rather than backing-store reads (0 when nothing faulted).
func (t Totals) SoftFaultFrac() float64 {
	if f := t.FaultGB(); f > 0 {
		return t.SoftFaultGB / f
	}
	return 0
}

// opTrim is an in-flight trim of one VM's cold pages.
type opTrim struct {
	vmID   int
	leftGB float64
}

// opExtend is an in-flight extension of the oversubscribed pool from the
// server's unallocated memory.
type opExtend struct {
	leftGB float64
}

// opMigrate is an in-flight live migration: the VM's memory (resident plus
// paged-in cold memory, per §3.2 "Live migration") is copied during
// pre-copy; on completion the VM leaves the server and its frames free.
type opMigrate struct {
	vmID    int
	leftGB  float64
	totalGB float64
}

// Server simulates one host's oversubscribed memory pool and its VMs.
type Server struct {
	cfg Config

	poolGB    float64 // physical frames backing VA regions
	unallocGB float64 // spare server memory available to Extend

	// initPoolGB/initUnallocGB remember the boot-time sizing so Crash can
	// undo pool extensions: a rebooted host comes back with its original
	// memory split, not with whatever Extend had claimed.
	initPoolGB    float64
	initUnallocGB float64

	// order holds the member VM ids ascending, the deterministic iteration
	// order; members holds each one's memory at the same position.
	order   []int
	members []*VMMem

	// residentGB tracks the pool frames holding resident VA pages,
	// maintained incrementally at every admit/trim/steal/migrate so
	// PoolUsed is O(1) instead of a per-call sum over VMs (which made
	// stepFaults quadratic in the VM count).
	residentGB float64

	totals Totals

	trims      []opTrim
	extends    []opExtend
	migrations []opMigrate

	frame     TickFrame
	allowance []float64 // stepFaults scratch, parallel to frame
	pending   []int     // stepFaults scratch: frame positions with demand

	// quiet reports whether the last full Tick was a complete no-op: no
	// in-flight operations remained, no memory moved, and no working-set
	// or pinned demand was left unserved. A quiet server that nothing
	// mutates from outside would reproduce the exact same tick forever,
	// which is what lets callers skip it (SkipTick) and reuse its frame.
	quiet bool

	ticks int64 // full Tick passes executed
	skips int64 // SkipTick passes executed

	now float64 // seconds
}

// NewServer creates a server whose oversubscribed pool holds poolGB of
// physical memory, with unallocGB spare for Extend mitigations.
func NewServer(cfg Config, poolGB, unallocGB float64) *Server {
	return &Server{
		cfg: cfg, poolGB: poolGB, unallocGB: unallocGB,
		initPoolGB: poolGB, initUnallocGB: unallocGB,
	}
}

// Config returns the server's hardware parameters.
func (s *Server) Config() Config { return s.cfg }

// Now returns the simulated time in seconds.
func (s *Server) Now() float64 { return s.now }

// PoolGB returns the oversubscribed pool's physical size.
func (s *Server) PoolGB() float64 { return s.poolGB }

// PoolUsed returns the pool frames currently holding resident VA pages.
// The value is maintained incrementally (O(1)); it tracks the exact
// per-VM sum to within float-summation noise.
func (s *Server) PoolUsed() float64 {
	if s.residentGB < 0 {
		return 0
	}
	return s.residentGB
}

// PoolFree returns the available oversubscribed memory — the quantity
// plotted in Fig. 21a.
func (s *Server) PoolFree() float64 {
	f := s.poolGB - s.PoolUsed()
	if f < 0 {
		return 0
	}
	return f
}

// UnallocatedGB returns the spare memory Extend can still claim.
func (s *Server) UnallocatedGB() float64 { return s.unallocGB }

// Totals returns the cumulative data-plane volumes since creation.
func (s *Server) Totals() Totals { return s.totals }

// AddVM registers a VM. Its working set starts at zero; drive it with
// VM(id).SetWSS.
func (s *Server) AddVM(vm *VMMem) error {
	i, dup := slices.BinarySearch(s.order, vm.ID)
	if dup {
		return fmt.Errorf("memsim: vm %d already on server", vm.ID)
	}
	s.order = slices.Insert(s.order, i, vm.ID)
	s.members = slices.Insert(s.members, i, vm)
	s.residentGB += vm.ResidentVA()
	return nil
}

// RemoveVM detaches a VM, freeing its pool frames. Returns false if absent.
func (s *Server) RemoveVM(id int) bool {
	i := indexOf(s.order, id)
	if i < 0 {
		return false
	}
	s.residentGB -= s.members[i].ResidentVA()
	s.order = slices.Delete(s.order, i, i+1)
	s.members = slices.Delete(s.members, i, i+1)
	if len(s.order) == 0 {
		// Cancel residual float drift from the incremental updates.
		s.residentGB = 0
	}
	return true
}

// Crash models a host failure followed by an immediate reboot: every
// VM's memory is lost, in-flight trim/extend/migrate operations abort,
// and the machine comes back with its boot-time pool/unallocated split
// (pool extensions do not survive a reboot). Cumulative totals and the
// tick/skip counters persist — they record history, not machine state —
// but the simulated clock keeps running and the stats frame resets to
// empty. The server is left non-quiet so the next data-plane pass runs
// a full tick instead of replaying a stale cached frame.
func (s *Server) Crash() {
	clear(s.members)
	s.members = s.members[:0]
	s.order = s.order[:0]
	s.residentGB = 0
	s.trims = s.trims[:0]
	s.extends = s.extends[:0]
	s.migrations = s.migrations[:0]
	s.poolGB = s.initPoolGB
	s.unallocGB = s.initUnallocGB
	s.frame.reset(nil, nil)
	s.quiet = false
}

// VM returns the memory state of a VM (nil when absent).
func (s *Server) VM(id int) *VMMem {
	if i := indexOf(s.order, id); i >= 0 {
		return s.members[i]
	}
	return nil
}

// AdmitWarm makes up to gb of the VM's pending working-set demand
// resident immediately, clamped to free pool frames, without fault
// accounting: the pages arrived with a live migration's pre-copy stream,
// so their transfer cost was already charged as MigratedGB at the source
// and the target pays neither fault bandwidth nor fault latency for
// them. Returns the GB made resident. The un-admitted remainder (dirtied
// after the final pre-copy pass, or beyond the free pool) demand-faults
// like any cold arrival.
func (s *Server) AdmitWarm(id int, gb float64) float64 {
	vm := s.VM(id)
	if vm == nil || gb <= 0 {
		return 0
	}
	free := s.poolGB - s.residentGB
	if free <= 0 {
		return 0
	}
	admitted, _ := vm.admit(min2(gb, free))
	s.residentGB += admitted
	return admitted
}

// VMs returns the ids of resident VMs in deterministic order.
func (s *Server) VMs() []int {
	out := make([]int, len(s.order))
	copy(out, s.order)
	return out
}

// Members returns the resident VMs in ascending id order without copying.
// The slice is the server's own: callers must not modify it, and it is
// only valid until the next AddVM, RemoveVM, Tick or Crash.
func (s *Server) Members() []*VMMem { return s.members }

// StartTrim schedules trimming up to gb of the VM's cold pages at the trim
// bandwidth (§4.5: 1.1 GB/s).
func (s *Server) StartTrim(vmID int, gb float64) {
	if gb > 0 {
		s.trims = append(s.trims, opTrim{vmID: vmID, leftGB: gb})
	}
}

// StartExtend schedules growing the pool by up to gb from unallocated
// server memory at the extend bandwidth (§4.5: 15.7 GB/s).
func (s *Server) StartExtend(gb float64) {
	if gb > 0 {
		s.extends = append(s.extends, opExtend{leftGB: gb})
	}
}

// StartMigrate schedules live-migrating the VM away. The copied volume is
// the VM's working set plus its trimmed cold memory, which must be paged
// in during pre-copy (§3.2).
func (s *Server) StartMigrate(vmID int) bool {
	vm := s.VM(vmID)
	if vm == nil {
		return false
	}
	for _, m := range s.migrations {
		if m.vmID == vmID {
			return false // already migrating
		}
	}
	vol := vm.PAGB + vm.ResidentVA() + vm.Missing() + vm.coldStore
	s.migrations = append(s.migrations, opMigrate{vmID: vmID, leftGB: vol, totalGB: vol})
	return true
}

// MigrationsInFlight returns the number of live migrations in progress.
func (s *Server) MigrationsInFlight() int { return len(s.migrations) }

// OpsInFlight returns the number of in-flight trim, extend and migration
// operations. A server with pending operations must keep running full
// ticks: each of them moves memory on the next Tick.
func (s *Server) OpsInFlight() int {
	return len(s.trims) + len(s.extends) + len(s.migrations)
}

// Quiet reports whether the last full Tick was a complete no-op (see the
// quiet field). It says nothing about mutations made after that tick
// (AddVM, SetWSS, Start*, AdmitWarm, ...): callers that skip ticks must
// invalidate their own skip decision on such mutations, which is what
// core.DataPlane's dirty-server tracking does.
func (s *Server) Quiet() bool { return s.quiet }

// TickCount returns the number of full Tick passes executed — the test
// hook the sparse-ticking coverage counts (a provably idle server must
// receive zero full ticks while skipped).
func (s *Server) TickCount() int64 { return s.ticks }

// SkipCount returns the number of SkipTick passes executed.
func (s *Server) SkipCount() int64 { return s.skips }

// Frame returns the server's tick-stats frame as of the last full Tick
// (empty before the first). Like Tick's return value it is owned by the
// server and overwritten by the next full Tick.
func (s *Server) Frame() *TickFrame { return &s.frame }

// SkipTick is the sparse tick entry point: it advances simulated time
// without re-running the paging and mitigation machinery, returning the
// cached frame of the last full Tick. It is only valid when that tick
// was a complete no-op (Quiet() with OpsInFlight() == 0) and nothing
// mutated the server since — an idle server re-ticked for dt would
// reproduce exactly that frame, so skipping is bit-identical to ticking.
func (s *Server) SkipTick(dt float64) *TickFrame {
	s.now += dt
	s.skips++
	return &s.frame
}

// settled reports whether every VM's working-set and pinned demand is
// fully served (below the same 1e-9 threshold the fault path uses, so a
// residue the fault loop would ignore does not keep the server busy).
func (s *Server) settled() bool {
	for _, vm := range s.members {
		if vm.Missing() > 1e-9 || vm.pinnedDemand() > 1e-9 {
			return false
		}
	}
	return true
}

// Migrating reports whether vmID has an in-flight migration.
func (s *Server) Migrating(vmID int) bool {
	for _, m := range s.migrations {
		if m.vmID == vmID {
			return true
		}
	}
	return false
}

// Tick advances the simulation by dt seconds and returns the per-VM stats
// frame. The frame is owned by the server and overwritten by the next
// Tick; copy entries that must outlive it.
func (s *Server) Tick(dt float64) (*TickFrame, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("memsim: non-positive dt %g", dt)
	}
	totalsBefore := s.totals
	f := &s.frame
	f.reset(s.order, s.members)
	// The latency mixture is evaluated against the demand present at the
	// start of the tick: pages that must fault in during this tick are
	// the ones whose accesses pay the fault latency.
	for i, vm := range f.vms {
		st := &f.stats[i]
		pPA, pVA, pSoft, pHard := vm.accessMix()
		st.PPA, st.PVA, st.PSoft, st.PHard = pPA, pVA, pSoft, pHard
		st.MeanNs = pPA*s.cfg.PAAccessNs + pVA*s.cfg.VAAccessNs +
			pSoft*s.cfg.SoftFaultNs + pHard*s.cfg.FaultNs
		st.P99Ns = mixtureQuantile(0.99,
			[4]float64{pPA, pVA, pSoft, pHard},
			[4]float64{s.cfg.PAAccessNs, s.cfg.VAAccessNs, s.cfg.SoftFaultNs, s.cfg.FaultNs})
	}

	s.stepExtends(dt)
	s.stepTrims(dt)
	s.stepMigrations(dt, f)
	if err := s.stepFaults(dt, f); err != nil {
		return nil, err
	}
	for _, vm := range s.members {
		if err := vm.checkInvariants(); err != nil {
			return nil, err
		}
	}
	s.now += dt
	s.ticks++
	// No memory moved (totals unchanged also implies every frame FaultGB/
	// StolenGB entry is zero), nothing is in flight, and no demand is
	// pending: re-running this tick would change nothing.
	s.quiet = s.totals == totalsBefore && s.OpsInFlight() == 0 && s.settled()
	return f, nil
}

func (s *Server) stepExtends(dt float64) {
	budget := s.cfg.ExtendBandwidthGBs * dt
	rest := s.extends[:0]
	for _, op := range s.extends {
		if budget <= 0 {
			rest = append(rest, op)
			continue
		}
		amount := min2(min2(op.leftGB, budget), s.unallocGB)
		s.unallocGB -= amount
		s.poolGB += amount
		s.totals.ExtendedGB += amount
		op.leftGB -= amount
		budget -= amount
		if op.leftGB > 1e-9 && s.unallocGB > 1e-9 {
			rest = append(rest, op)
		}
	}
	s.extends = rest
}

func (s *Server) stepTrims(dt float64) {
	budget := s.cfg.TrimBandwidthGBs * dt
	rest := s.trims[:0]
	for _, op := range s.trims {
		vm := s.VM(op.vmID)
		if vm == nil {
			continue
		}
		if budget <= 0 {
			rest = append(rest, op)
			continue
		}
		amount := vm.trimCold(min2(op.leftGB, budget))
		s.residentGB -= amount
		s.totals.TrimmedGB += amount
		op.leftGB -= amount
		budget -= amount
		if op.leftGB > 1e-9 && vm.Trimmable() > 1e-9 {
			rest = append(rest, op)
		}
	}
	s.trims = rest
}

func (s *Server) stepMigrations(dt float64, f *TickFrame) {
	if len(s.migrations) == 0 {
		return
	}
	budget := s.cfg.MigrateBandwidthGBs * dt / float64(len(s.migrations))
	rest := s.migrations[:0]
	for _, op := range s.migrations {
		if s.VM(op.vmID) == nil {
			continue
		}
		op.leftGB -= budget
		if op.leftGB <= 0 {
			// Migration complete: the VM leaves, freeing its frames.
			s.totals.MigratedGB += op.totalGB
			s.RemoveVM(op.vmID)
			f.depart(op.vmID)
			continue
		}
		rest = append(rest, op)
	}
	s.migrations = rest
}

// stepFaults services missing working-set pages subject to fault bandwidth
// and pool frames, evicting cold pages — and, if forced, stealing resident
// working-set pages — when the pool is exhausted. A VM's admission this
// tick is capped at its demand pending when the tick started: pages stolen
// mid-tick cannot be read back instantly (the write-out/read-back round
// trip spans ticks), which is what makes thrashing observable.
func (s *Server) stepFaults(dt float64, f *TickFrame) error {
	faultBudget := s.cfg.FaultBandwidthGBs * dt
	evictBudget := s.cfg.EvictBandwidthGBs * dt

	// DMA-pinned ranges are backed eagerly and first: devices must never
	// hit an invalid translation (§3.2 guest enlightenments).
	for _, vm := range f.vms {
		if vm == nil {
			continue // departed mid-tick
		}
		want := vm.pinnedDemand()
		if want <= 1e-9 || faultBudget <= 1e-9 {
			continue
		}
		free := s.poolGB - s.residentGB
		if free < want {
			free += s.makeRoom(want-free, &evictBudget, f)
		}
		got := vm.admitPinned(min2(min2(want, free), faultBudget))
		s.residentGB += got
		s.totals.SoftFaultGB += got
		faultBudget -= got
	}

	if cap(s.allowance) < len(f.ids) {
		s.allowance = make([]float64, len(f.ids))
	}
	allowance := s.allowance[:len(f.ids)]
	for i, vm := range f.vms {
		if vm != nil {
			allowance[i] = vm.Missing()
		} else {
			allowance[i] = 0
		}
	}

	// Deterministic round-robin over VMs with pending demand.
	pending := s.pending[:0]
	for iter := 0; iter < 64 && faultBudget > 1e-9; iter++ {
		pending = pending[:0]
		var totalMissing float64
		for i, vm := range f.vms {
			if vm == nil {
				continue
			}
			if m := min2(vm.Missing(), allowance[i]); m > 1e-9 {
				pending = append(pending, i)
				totalMissing += m
			}
		}
		if len(pending) == 0 {
			break
		}
		progressed := false
		for _, i := range pending {
			vm := f.vms[i]
			m := min2(vm.Missing(), allowance[i])
			want := min2(m, faultBudget*m/totalMissing+1e-12)
			if want <= 1e-9 {
				continue
			}
			free := s.poolGB - s.residentGB
			if free < want {
				freed := s.makeRoom(want-free, &evictBudget, f)
				free += freed
			}
			admit := min2(want, free)
			if admit <= 1e-9 {
				continue
			}
			admitted, fromStore := vm.admit(admit)
			s.residentGB += admitted
			s.totals.HardFaultGB += fromStore
			s.totals.SoftFaultGB += admitted - fromStore
			faultBudget -= admitted
			allowance[i] -= admitted
			f.stats[i].FaultGB += fromStore
			if admitted > 1e-9 {
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	s.pending = pending
	return nil
}

// makeRoom frees up to gb of pool frames through the hypervisor's default
// demand paging. Without the oversubscription agent's access tracking the
// hypervisor cannot tell cold pages from hot ones, so eviction is blind:
// it takes cold and working-set resident pages in proportion to their
// populations. Stolen working-set pages fault right back in — the paging
// storm the None policy suffers in Fig. 21 ("frequently pages out memory
// that is paged in later"). Coach's agent avoids this by trimming
// known-cold pages ahead of demand (StartTrim).
func (s *Server) makeRoom(gb float64, evictBudget *float64, f *TickFrame) float64 {
	var totalCold, totalRes float64
	for _, vm := range s.members {
		totalCold += vm.coldResident
		totalRes += vm.needResident
	}
	evictable := totalCold + totalRes
	if evictable <= 1e-9 || *evictBudget <= 1e-9 {
		return 0
	}
	want := min2(min2(gb, *evictBudget), evictable)
	var freed float64
	for i, vm := range f.vms {
		if vm == nil {
			continue // departed mid-tick
		}
		share := want * (vm.coldResident + vm.needResident) / evictable
		coldTake := share
		if vm.coldResident+vm.needResident > 0 {
			coldTake = share * vm.coldResident / (vm.coldResident + vm.needResident)
		}
		trimmed := vm.trimCold(coldTake)
		s.totals.EvictedColdGB += trimmed
		freed += trimmed
		stolen := vm.stealResident(share - coldTake)
		if stolen > 0 {
			f.stats[i].StolenGB += stolen
			s.totals.StolenGB += stolen
			freed += stolen
		}
	}
	s.residentGB -= freed
	*evictBudget -= freed
	return freed
}

// mixtureQuantile returns the q-quantile of a discrete latency mixture
// given parallel probability and latency arrays in ascending latency
// order: the largest latency whose upper tail mass exceeds 1-q. The
// fixed-size arrays keep the per-VM tick path allocation-free.
func mixtureQuantile(q float64, probs, lats [4]float64) float64 {
	tail := 1 - q
	var mass float64
	for i := len(probs) - 1; i > 0; i-- {
		mass += probs[i]
		if mass > tail {
			return lats[i]
		}
	}
	return lats[0]
}
