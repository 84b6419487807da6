package memsim

import (
	"math"
	"math/rand"
	"testing"
)

// poolUsedNaive recomputes pool usage from the per-VM populations in
// deterministic order; tests pin the incremental counter against it.
func (s *Server) poolUsedNaive() float64 {
	var used float64
	for _, vm := range s.members {
		used += vm.ResidentVA()
	}
	return used
}

func mustVM(t *testing.T, id int, size, pa float64) *VMMem {
	t.Helper()
	vm, err := NewVMMem(id, size, pa)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestNewVMMemValidation(t *testing.T) {
	if _, err := NewVMMem(1, 0, 0); err == nil {
		t.Error("zero size must fail")
	}
	if _, err := NewVMMem(1, 8, 9); err == nil {
		t.Error("PA > size must fail")
	}
	if _, err := NewVMMem(1, 8, -1); err == nil {
		t.Error("negative PA must fail")
	}
	vm := mustVM(t, 1, 8, 3)
	if vm.VAGB() != 5 {
		t.Errorf("VAGB = %v", vm.VAGB())
	}
}

func TestSetWSSWithinPA(t *testing.T) {
	vm := mustVM(t, 1, 8, 3)
	vm.SetWSS(2) // fits entirely in PA
	if vm.vaNeed() != 0 || vm.Missing() != 0 || vm.ResidentVA() != 0 {
		t.Error("WSS within PA must create no VA demand")
	}
}

func TestSetWSSGrowthCreatesFresh(t *testing.T) {
	vm := mustVM(t, 1, 8, 3)
	vm.SetWSS(5) // 2GB spill into VA, never touched -> fresh
	if vm.needFresh != 2 {
		t.Errorf("needFresh = %v, want 2", vm.needFresh)
	}
	if vm.Missing() != 2 {
		t.Errorf("Missing = %v", vm.Missing())
	}
}

func TestSetWSSClampsToSize(t *testing.T) {
	vm := mustVM(t, 1, 8, 3)
	vm.SetWSS(100)
	if vm.WSS() != 8 {
		t.Errorf("WSS clamped to %v, want 8", vm.WSS())
	}
	vm.SetWSS(-3)
	if vm.WSS() != 0 {
		t.Errorf("negative WSS = %v", vm.WSS())
	}
}

func TestShrinkThenRegrowReusesColdResident(t *testing.T) {
	vm := mustVM(t, 1, 8, 3)
	vm.SetWSS(5)
	vm.admit(2) // materialize the spill
	vm.SetWSS(3)
	if vm.coldResident != 2 {
		t.Fatalf("coldResident = %v after shrink", vm.coldResident)
	}
	vm.SetWSS(5) // regrow: must reuse cold pages without faulting
	if vm.Missing() != 0 {
		t.Errorf("regrowth faulted %v GB despite cold pages", vm.Missing())
	}
	if vm.needResident != 2 {
		t.Errorf("needResident = %v", vm.needResident)
	}
}

func TestShrinkCancelsPendingDemand(t *testing.T) {
	vm := mustVM(t, 1, 8, 3)
	vm.SetWSS(5) // 2 fresh pending
	vm.SetWSS(3) // shrink before servicing
	if vm.Missing() != 0 {
		t.Errorf("pending demand survived shrink: %v", vm.Missing())
	}
	if vm.needFresh != 0 {
		t.Errorf("needFresh = %v", vm.needFresh)
	}
}

func TestTrimAndRefault(t *testing.T) {
	vm := mustVM(t, 1, 8, 3)
	vm.SetWSS(5)
	vm.admit(2)
	vm.SetWSS(3)
	if got := vm.trimCold(1.5); got != 1.5 {
		t.Fatalf("trimCold = %v", got)
	}
	if vm.coldStore != 1.5 || vm.coldResident != 0.5 {
		t.Fatalf("cold accounting wrong: store=%v resident=%v", vm.coldStore, vm.coldResident)
	}
	// Regrow: reuse remaining cold resident (0.5) then refault from store.
	vm.SetWSS(5)
	if vm.needStore != 1.5 {
		t.Errorf("needStore = %v, want 1.5 (refault)", vm.needStore)
	}
	_, fromStore := vm.admit(1.5)
	if fromStore != 1.5 {
		t.Errorf("admit fromStore = %v", fromStore)
	}
}

func TestStealResident(t *testing.T) {
	vm := mustVM(t, 1, 8, 3)
	vm.SetWSS(5)
	vm.admit(2)
	if got := vm.stealResident(1); got != 1 {
		t.Fatalf("stealResident = %v", got)
	}
	if vm.needStore != 1 {
		t.Errorf("stolen pages must land in the store: %v", vm.needStore)
	}
}

func TestRotateConservation(t *testing.T) {
	vm := mustVM(t, 1, 16, 4)
	vm.SetWSS(10)
	vm.admit(6)
	before := vm.vaNeed()
	vm.Rotate(2)
	// Working-set size unchanged; total need population preserved.
	if vm.vaNeed() != before {
		t.Errorf("Rotate changed vaNeed: %v vs %v", vm.vaNeed(), before)
	}
	total := vm.needResident + vm.needStore + vm.needFresh
	if math.Abs(total-before) > 1e-9 {
		t.Errorf("need population %v != %v", total, before)
	}
	// The rotated-away pages linger as cold garbage.
	if vm.coldResident != 2 {
		t.Errorf("coldResident = %v, want 2", vm.coldResident)
	}
	if vm.needFresh != 2 {
		t.Errorf("fresh allocations = %v, want 2", vm.needFresh)
	}
	if err := vm.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRotateExhaustsFreshThenRecycles(t *testing.T) {
	vm := mustVM(t, 1, 8, 3) // VA = 5
	vm.SetWSS(7)             // vaNeed 4
	vm.admit(4)
	// Fresh space = 5 - 4 = 1. Rotating 2GB: 1 fresh + 1 recycled.
	vm.Rotate(2)
	if vm.needFresh != 1 {
		t.Errorf("needFresh = %v, want 1", vm.needFresh)
	}
	if err := vm.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAccessMixSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		size := 4 + rng.Float64()*60
		pa := rng.Float64() * size
		vm := mustVM(t, 1, size, pa)
		vm.SetWSS(rng.Float64() * size * 1.2)
		vm.admit(rng.Float64() * vm.Missing())
		if rng.Float64() < 0.5 {
			vm.SetWSS(rng.Float64() * size)
		}
		pPA, pVA, pSoft, pHard := vm.accessMix()
		sum := pPA + pVA + pSoft + pHard
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("mix sums to %v", sum)
		}
		for _, p := range []float64{pPA, pVA, pSoft, pHard} {
			if p < -1e-12 || p > 1+1e-12 {
				t.Fatalf("probability %v outside [0,1]", p)
			}
		}
	}
}

func TestAccessMixZNUMAFunneling(t *testing.T) {
	// With the hot set inside PA, the VA share must be below the uniform
	// share (zNUMA funnels hot accesses to guaranteed memory).
	vm := mustVM(t, 1, 32, 16)
	vm.HotFrac, vm.HotSize = 0.8, 0.2
	vm.SetWSS(20)
	vm.admit(vm.Missing())
	_, pVA, _, _ := vm.accessMix()
	uniform := 4.0 / 20 // spill / wss
	if pVA >= uniform {
		t.Errorf("VA share %v not funneled below uniform %v", pVA, uniform)
	}
}

// Property: random operation sequences preserve the VMMem invariants.
func TestVMMemInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 100; trial++ {
		vm := mustVM(t, 1, 8+rng.Float64()*56, 0)
		vm.PAGB = rng.Float64() * vm.SizeGB
		for op := 0; op < 50; op++ {
			switch rng.Intn(5) {
			case 0:
				vm.SetWSS(rng.Float64() * vm.SizeGB * 1.1)
			case 1:
				vm.admit(rng.Float64() * vm.Missing())
			case 2:
				vm.trimCold(rng.Float64() * 4)
			case 3:
				vm.stealResident(rng.Float64() * 2)
			case 4:
				vm.Rotate(rng.Float64() * 2)
			}
			if err := vm.checkInvariants(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
		}
	}
}

func TestServerAddRemoveVM(t *testing.T) {
	s := NewServer(DefaultConfig(), 10, 5)
	vm := mustVM(t, 1, 8, 3)
	if err := s.AddVM(vm); err != nil {
		t.Fatal(err)
	}
	if err := s.AddVM(vm); err == nil {
		t.Error("duplicate AddVM must fail")
	}
	if s.VM(1) != vm || s.VM(2) != nil {
		t.Error("VM lookup wrong")
	}
	if !s.RemoveVM(1) || s.RemoveVM(1) {
		t.Error("RemoveVM semantics wrong")
	}
	if len(s.VMs()) != 0 {
		t.Error("VMs list not empty")
	}
}

// TestAdmitWarmVsColdArrival pins the resident-arrival accounting a
// completed live migration relies on: warm-admitted pages become
// resident immediately, consume pool frames, and charge no fault volume
// — while an identical cold arrival pays for every page through the
// fault path (soft faults here, since the pages were never trimmed).
func TestAdmitWarmVsColdArrival(t *testing.T) {
	build := func() (*Server, *VMMem) {
		s := NewServer(DefaultConfig(), 10, 0)
		vm := mustVM(t, 1, 12, 2)
		if err := s.AddVM(vm); err != nil {
			t.Fatal(err)
		}
		vm.SetWSS(8) // 6GB VA demand against a 10GB pool
		return s, vm
	}

	warmSrv, warmVM := build()
	if got := warmSrv.AdmitWarm(1, 4); math.Abs(got-4) > 1e-9 {
		t.Fatalf("AdmitWarm admitted %v GB, want 4", got)
	}
	if warmSrv.AdmitWarm(2, 1) != 0 || warmSrv.AdmitWarm(1, 0) != 0 {
		t.Error("AdmitWarm of absent VM or zero volume must admit nothing")
	}
	if got := warmVM.ResidentVA(); math.Abs(got-4) > 1e-9 {
		t.Errorf("warm VM resident %v GB, want 4", got)
	}
	if got := warmSrv.PoolUsed(); math.Abs(got-4) > 1e-9 {
		t.Errorf("pool used %v GB after warm arrival, want 4", got)
	}
	if tot := warmSrv.Totals(); tot.HardFaultGB != 0 || tot.SoftFaultGB != 0 {
		t.Errorf("warm arrival charged fault volume: %+v", tot)
	}

	coldSrv, _ := build()
	for i := 0; i < 10; i++ {
		if _, err := coldSrv.Tick(1); err != nil {
			t.Fatal(err)
		}
		if _, err := warmSrv.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
	coldTot, warmTot := coldSrv.Totals(), warmSrv.Totals()
	if coldTot.FaultGB() < 6-1e-6 {
		t.Errorf("cold arrival faulted %v GB, want the full 6", coldTot.FaultGB())
	}
	// The warm VM only demand-faults the remainder its pre-copy missed.
	if want := 2.0; math.Abs(warmTot.FaultGB()-want) > 1e-6 {
		t.Errorf("warm arrival faulted %v GB, want %v", warmTot.FaultGB(), want)
	}
	// Both end fully resident; only the fault bill differs.
	if cr, wr := coldSrv.PoolUsed(), warmSrv.PoolUsed(); math.Abs(cr-wr) > 1e-6 {
		t.Errorf("steady-state residency differs: cold %v vs warm %v", cr, wr)
	}

	// Warm admission is clamped by free pool frames.
	tight := NewServer(DefaultConfig(), 3, 0)
	tvm := mustVM(t, 7, 12, 2)
	if err := tight.AddVM(tvm); err != nil {
		t.Fatal(err)
	}
	tvm.SetWSS(8)
	if got := tight.AdmitWarm(7, 6); math.Abs(got-3) > 1e-9 {
		t.Errorf("AdmitWarm past the pool admitted %v GB, want 3", got)
	}
}

func TestServerTickValidation(t *testing.T) {
	s := NewServer(DefaultConfig(), 10, 0)
	if _, err := s.Tick(0); err == nil {
		t.Error("zero dt must fail")
	}
}

func TestFaultServiceBoundedByBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FaultBandwidthGBs = 1
	s := NewServer(cfg, 100, 0)
	vm := mustVM(t, 1, 64, 0)
	if err := s.AddVM(vm); err != nil {
		t.Fatal(err)
	}
	vm.SetWSS(50)
	if _, err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	if got := vm.ResidentVA(); got > 1+1e-9 {
		t.Errorf("admitted %v GB in 1s at 1GB/s", got)
	}
}

func TestPoolAccountingAfterTicks(t *testing.T) {
	s := NewServer(DefaultConfig(), 6, 0)
	a := mustVM(t, 1, 8, 2)
	b := mustVM(t, 2, 8, 2)
	s.AddVM(a)
	s.AddVM(b)
	a.SetWSS(6)
	b.SetWSS(6)
	for i := 0; i < 20; i++ {
		if _, err := s.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
	if used := s.PoolUsed(); used > s.PoolGB()+1e-6 {
		t.Errorf("pool used %v exceeds pool %v", used, s.PoolGB())
	}
	if free := s.PoolFree(); free < 0 {
		t.Errorf("negative pool free %v", free)
	}
}

func TestTrimOperationFreesPool(t *testing.T) {
	s := NewServer(DefaultConfig(), 10, 0)
	vm := mustVM(t, 1, 16, 4)
	s.AddVM(vm)
	vm.SetWSS(12)
	for i := 0; i < 10; i++ {
		s.Tick(1)
	}
	vm.SetWSS(4) // 8GB goes cold
	if vm.Trimmable() < 7.9 {
		t.Fatalf("trimmable = %v", vm.Trimmable())
	}
	freeBefore := s.PoolFree()
	s.StartTrim(1, 8)
	for i := 0; i < 12; i++ { // 8GB at 1.1GB/s ~ 8s
		s.Tick(1)
	}
	if s.PoolFree()-freeBefore < 7.9 {
		t.Errorf("trim freed only %v GB", s.PoolFree()-freeBefore)
	}
}

func TestTrimBandwidthHonored(t *testing.T) {
	cfg := DefaultConfig()
	s := NewServer(cfg, 10, 0)
	vm := mustVM(t, 1, 16, 4)
	s.AddVM(vm)
	vm.SetWSS(12)
	for i := 0; i < 10; i++ {
		s.Tick(1)
	}
	vm.SetWSS(4)
	trimmableBefore := vm.Trimmable()
	s.StartTrim(1, 8)
	s.Tick(1)
	trimmed := trimmableBefore - vm.Trimmable()
	if trimmed > cfg.TrimBandwidthGBs+1e-9 {
		t.Errorf("trimmed %v GB in 1s at %v GB/s", trimmed, cfg.TrimBandwidthGBs)
	}
}

func TestExtendBoundedByUnallocated(t *testing.T) {
	s := NewServer(DefaultConfig(), 4, 3)
	s.StartExtend(10)
	for i := 0; i < 5; i++ {
		s.Tick(1)
	}
	if s.PoolGB() != 7 {
		t.Errorf("pool = %v, want 7 (4 + 3 unallocated)", s.PoolGB())
	}
	if s.UnallocatedGB() != 0 {
		t.Errorf("unallocated = %v", s.UnallocatedGB())
	}
}

func TestMigrationRemovesVMAndFreesPool(t *testing.T) {
	s := NewServer(DefaultConfig(), 10, 0)
	vm := mustVM(t, 1, 8, 2)
	s.AddVM(vm)
	vm.SetWSS(6)
	for i := 0; i < 5; i++ {
		s.Tick(1)
	}
	if !s.StartMigrate(1) {
		t.Fatal("StartMigrate failed")
	}
	if s.StartMigrate(1) {
		t.Error("double migration of same VM must fail")
	}
	if !s.Migrating(1) || s.MigrationsInFlight() != 1 {
		t.Error("migration tracking wrong")
	}
	for i := 0; i < 30 && s.VM(1) != nil; i++ {
		s.Tick(1)
	}
	if s.VM(1) != nil {
		t.Fatal("migration never completed")
	}
	if s.PoolUsed() != 0 {
		t.Errorf("pool still used after migration: %v", s.PoolUsed())
	}
}

func TestBlindEvictionStealsUnderPressure(t *testing.T) {
	// Demand exceeding the pool with no agent: the hypervisor must steal
	// working-set pages (the None-policy paging storm).
	s := NewServer(DefaultConfig(), 4, 0)
	a := mustVM(t, 1, 8, 1)
	b := mustVM(t, 2, 8, 1)
	s.AddVM(a)
	s.AddVM(b)
	a.SetWSS(5) // vaNeed 4
	b.SetWSS(5) // vaNeed 4; total 8 > pool 4
	var stolen float64
	for i := 0; i < 20; i++ {
		st, err := s.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		stolen += st.Get(1).StolenGB + st.Get(2).StolenGB
	}
	if stolen == 0 {
		t.Error("pool pressure without cold memory must steal working-set pages")
	}
}

func TestTickStatsLatencyOrdering(t *testing.T) {
	cfg := DefaultConfig()
	// Fully PA VM: mean latency = PA latency.
	s := NewServer(cfg, 0, 0)
	vm := mustVM(t, 1, 8, 8)
	s.AddVM(vm)
	vm.SetWSS(6)
	st, err := s.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Get(1).MeanNs != cfg.PAAccessNs {
		t.Errorf("fully guaranteed VM mean = %v, want %v", st.Get(1).MeanNs, cfg.PAAccessNs)
	}
	if st.Get(1).Slowdown(cfg) != 1 {
		t.Errorf("slowdown = %v", st.Get(1).Slowdown(cfg))
	}
}

func TestMixtureQuantile(t *testing.T) {
	lats := [4]float64{100, 140, 2000, 150000}
	if got := mixtureQuantile(0.99, [4]float64{1, 0, 0, 0}, lats); got != 100 {
		t.Errorf("pure PA quantile = %v", got)
	}
	if got := mixtureQuantile(0.99, [4]float64{0.5, 0.5, 0, 0}, lats); got != 140 {
		t.Errorf("half VA quantile = %v", got)
	}
	// 2% hard faults -> P99 is a fault.
	if got := mixtureQuantile(0.99, [4]float64{0.98, 0, 0, 0.02}, lats); got != 150000 {
		t.Errorf("2%% hard-fault quantile = %v", got)
	}
	if got := mixtureQuantile(0.99, [4]float64{0.985, 0, 0.015, 0}, lats); got != 2000 {
		t.Errorf("soft-tail quantile = %v", got)
	}
}

func TestPFaultSum(t *testing.T) {
	st := TickStats{PSoft: 0.01, PHard: 0.02}
	if st.PFault() != 0.03 {
		t.Errorf("PFault = %v", st.PFault())
	}
}

func TestFaultPages(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.FaultPages(1); got != 512 { // 1GB at 2MB pages
		t.Errorf("FaultPages(1GB) = %v, want 512", got)
	}
	cfg.PageMB = 0
	if cfg.FaultPages(1) != 0 {
		t.Error("zero page size must return 0")
	}
}

// busyServer builds a server under enough pressure that every mechanism —
// faulting, trimming, extension, migration, blind eviction — runs.
func busyServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer(DefaultConfig(), 10, 6)
	for i := 1; i <= 6; i++ {
		vm := mustVM(t, i, 12, 2)
		if err := s.AddVM(vm); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func driveBusyTick(t *testing.T, s *Server, tick int) *TickFrame {
	t.Helper()
	for j, id := range s.VMs() {
		// Phases shift per VM so cold memory, refaults and pressure all
		// appear at different times.
		wss := 3 + 3*math.Sin(float64(tick+13*j)/9)
		s.VM(id).SetWSS(wss)
	}
	switch tick % 40 {
	case 11:
		s.StartTrim(s.VMs()[tick%len(s.VMs())], 2)
	case 23:
		s.StartExtend(1)
	case 31:
		if ids := s.VMs(); len(ids) > 2 {
			s.StartMigrate(ids[0])
		}
	}
	f, err := s.Tick(1)
	if err != nil {
		t.Fatalf("tick %d: %v", tick, err)
	}
	return f
}

// TestPoolUsedIncrementalMatchesNaive pins the O(1) incremental
// pool-resident counter to the ground-truth per-VM sum under every
// mechanism that moves resident pages (satellite: replaces the former
// O(VMs²) PoolUsed recomputation inside stepFaults).
func TestPoolUsedIncrementalMatchesNaive(t *testing.T) {
	s := busyServer(t)
	for tick := 0; tick < 300; tick++ {
		driveBusyTick(t, s, tick)
		if got, want := s.PoolUsed(), s.poolUsedNaive(); math.Abs(got-want) > 1e-6 {
			t.Fatalf("tick %d: incremental PoolUsed %v != naive %v", tick, got, want)
		}
	}
	// Removing every VM resets the counter exactly (drift cancellation).
	for _, id := range s.VMs() {
		s.RemoveVM(id)
	}
	if s.PoolUsed() != 0 {
		t.Errorf("PoolUsed after removing all VMs = %v", s.PoolUsed())
	}
}

// TestTickFrameSemantics covers the reusable frame: deterministic order,
// id lookup, zero-value reads for absent ids, and buffer reuse across
// ticks.
func TestTickFrameSemantics(t *testing.T) {
	s := NewServer(DefaultConfig(), 10, 0)
	for _, id := range []int{7, 3, 5} {
		if err := s.AddVM(mustVM(t, id, 8, 2)); err != nil {
			t.Fatal(err)
		}
		s.VM(id).SetWSS(4)
	}
	f, err := s.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	for i, want := range []int{3, 5, 7} {
		if f.ID(i) != want {
			t.Errorf("ID(%d) = %d, want %d", i, f.ID(i), want)
		}
		if got, ok := f.Lookup(want); !ok || got != f.At(i) {
			t.Errorf("Lookup(%d) inconsistent with At(%d)", want, i)
		}
	}
	if _, ok := f.Lookup(99); ok {
		t.Error("Lookup of absent id must report false")
	}
	if f.Get(99) != (TickStats{}) {
		t.Error("Get of absent id must return the zero value")
	}
	f2, err := s.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Error("frame must be reused across ticks")
	}
}

// TestTickFrameDepartedOnMigration pins the mid-tick departure marking:
// a completed migration leaves the frame entry flagged and its Get
// reading as zero, matching the former map-delete semantics.
func TestTickFrameDepartedOnMigration(t *testing.T) {
	s := NewServer(DefaultConfig(), 10, 0)
	if err := s.AddVM(mustVM(t, 1, 8, 2)); err != nil {
		t.Fatal(err)
	}
	s.VM(1).SetWSS(3)
	if _, err := s.Tick(1); err != nil {
		t.Fatal(err)
	}
	if !s.StartMigrate(1) {
		t.Fatal("StartMigrate failed")
	}
	var last *TickFrame
	for i := 0; i < 30 && s.VM(1) != nil; i++ {
		f, err := s.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		last = f
	}
	if s.VM(1) != nil {
		t.Fatal("migration never completed")
	}
	if last.Len() != 1 || !last.Departed(0) {
		t.Error("completed migration must mark the frame entry departed")
	}
	if _, ok := last.Lookup(1); ok {
		t.Error("departed VM must read as absent")
	}
	if got := s.Totals().MigratedGB; got <= 0 {
		t.Errorf("MigratedGB = %v after completed migration", got)
	}
}

// TestTotalsAccumulate checks the cumulative volume counters against the
// mechanisms that feed them.
func TestTotalsAccumulate(t *testing.T) {
	s := busyServer(t)
	for tick := 0; tick < 300; tick++ {
		driveBusyTick(t, s, tick)
	}
	tot := s.Totals()
	if tot.SoftFaultGB <= 0 {
		t.Error("no demand-zero faults recorded")
	}
	if tot.HardFaultGB <= 0 {
		t.Error("no hard faults recorded despite refault churn")
	}
	if tot.TrimmedGB <= 0 {
		t.Error("no trims recorded despite StartTrim")
	}
	if tot.ExtendedGB <= 0 {
		t.Error("no extends recorded despite StartExtend")
	}
	if tot.StolenGB+tot.EvictedColdGB <= 0 {
		t.Error("no blind eviction under sustained pool pressure")
	}
	if f := tot.SoftFaultFrac(); f <= 0 || f >= 1 {
		t.Errorf("soft-fault fraction %v outside (0,1)", f)
	}
	if got := tot.FaultGB(); math.Abs(got-(tot.SoftFaultGB+tot.HardFaultGB)) > 1e-12 {
		t.Errorf("FaultGB %v != soft+hard", got)
	}
	sum := (Totals{TrimmedGB: 1, HardFaultGB: 2}).Add(Totals{TrimmedGB: 3, StolenGB: 4})
	if sum.TrimmedGB != 4 || sum.HardFaultGB != 2 || sum.StolenGB != 4 {
		t.Errorf("Totals.Add wrong: %+v", sum)
	}
}

// TestTickBitIdenticalAcrossRuns is the map-order regression test: two
// identical multi-VM runs must produce bit-identical stats and pool
// state. Before the frame refactor, per-tick map iteration could reorder
// float additions and diverge in the last bits.
func TestTickBitIdenticalAcrossRuns(t *testing.T) {
	run := func() []float64 {
		s := busyServer(t)
		var sig []float64
		for tick := 0; tick < 200; tick++ {
			f := driveBusyTick(t, s, tick)
			sig = append(sig, s.PoolUsed(), s.PoolGB(), s.UnallocatedGB())
			for i := 0; i < f.Len(); i++ {
				st := f.At(i)
				sig = append(sig, st.MeanNs, st.P99Ns, st.FaultGB, st.StolenGB,
					st.PPA, st.PVA, st.PSoft, st.PHard)
			}
		}
		tot := s.Totals()
		sig = append(sig, tot.TrimmedGB, tot.ExtendedGB, tot.MigratedGB,
			tot.HardFaultGB, tot.SoftFaultGB, tot.StolenGB, tot.EvictedColdGB)
		return sig
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("signature lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at signature element %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestServerCrash pins the host-failure contract: every VM and its
// memory vanishes, in-flight operations abort, the pool reverts to its
// boot-time split (extensions do not survive a reboot), and the server
// comes back non-quiet so the next pass runs a real tick. History —
// cumulative totals, tick counters, the clock — persists.
func TestServerCrash(t *testing.T) {
	s := NewServer(DefaultConfig(), 10, 5)
	vm := mustVM(t, 1, 8, 3)
	if err := s.AddVM(vm); err != nil {
		t.Fatal(err)
	}
	vm.SetWSS(6)
	if _, err := s.Tick(60); err != nil {
		t.Fatal(err)
	}
	s.StartExtend(5)
	if _, err := s.Tick(60); err != nil {
		t.Fatal(err)
	}
	s.StartTrim(1, 1)
	ticksBefore, totalsBefore, nowBefore := s.TickCount(), s.Totals(), s.Now()
	if totalsBefore.SoftFaultGB <= 0 {
		t.Fatalf("fixture never faulted pages in: %+v", totalsBefore)
	}

	s.Crash()

	if s.VM(1) != nil || len(s.VMs()) != 0 {
		t.Error("VMs survived the crash")
	}
	if s.OpsInFlight() != 0 {
		t.Errorf("ops in flight after crash: %d", s.OpsInFlight())
	}
	if s.PoolGB() != 10 || s.UnallocatedGB() != 5 {
		t.Errorf("pool split after crash = (%.1f, %.1f), want boot-time (10, 5)",
			s.PoolGB(), s.UnallocatedGB())
	}
	if got := s.PoolUsed(); got != 0 {
		t.Errorf("pool used after crash = %.2f, want 0", got)
	}
	if s.Quiet() {
		t.Error("server quiet after crash — next pass would replay a stale frame")
	}
	if s.TickCount() != ticksBefore || s.Totals() != totalsBefore || s.Now() != nowBefore {
		t.Error("crash rewrote history (ticks/totals/clock)")
	}

	// The rebooted server is immediately usable.
	if err := s.AddVM(mustVM(t, 2, 4, 2)); err != nil {
		t.Fatalf("AddVM after crash: %v", err)
	}
	if _, err := s.Tick(60); err != nil {
		t.Fatalf("Tick after crash: %v", err)
	}
}

// FuzzServerMembership drives random AddVM/RemoveVM/SetWSS/StartMigrate/
// StartTrim/Tick/Crash sequences against a map reference of the members.
// After every operation the server's id order, its member view, VM(id)
// and the incremental PoolUsed must match the reference; after every
// Tick each frame position must agree with the reference about whether
// its VM departed (a completed live migration) and what Lookup reports.
func FuzzServerMembership(f *testing.F) {
	// Two members, one migrates away mid-tick, then a crash and a re-add.
	f.Add([]byte{0, 3, 0, 1, 2, 3, 5, 6, 3, 3, 5, 119, 1, 1, 6, 0, 0, 3})
	// Duplicate adds, a trim and a removal between ticks.
	f.Add([]byte{0, 9, 0, 9, 0, 5, 2, 9, 5, 30, 4, 9, 1, 5, 5, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewServer(DefaultConfig(), 24, 8)
		ref := map[int]*VMMem{}
		migrating := map[int]bool{}
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k]%7, int(ops[k+1])
			id := arg % 12
			switch op {
			case 0:
				vm, err := NewVMMem(id, float64(2+arg%7), float64(arg%3))
				if err != nil {
					t.Fatal(err)
				}
				_, dup := ref[id]
				if err := s.AddVM(vm); (err != nil) != dup {
					t.Fatalf("AddVM(%d): err %v with dup=%v", id, err, dup)
				}
				if !dup {
					ref[id] = vm
				}
			case 1:
				_, had := ref[id]
				if got := s.RemoveVM(id); got != had {
					t.Fatalf("RemoveVM(%d) = %v, reference has it: %v", id, got, had)
				}
				delete(ref, id)
				delete(migrating, id)
			case 2:
				if vm := ref[id]; vm != nil {
					vm.SetWSS(float64(arg%9) * 0.5)
				}
			case 3:
				if s.StartMigrate(id) {
					migrating[id] = true
				}
			case 4:
				s.StartTrim(id, float64(arg%4))
			case 5:
				before := len(ref)
				fr, err := s.Tick(float64(1 + arg%120))
				if err != nil {
					t.Fatal(err)
				}
				if fr.Len() != before {
					t.Fatalf("frame holds %d VMs, %d were members", fr.Len(), before)
				}
				for i := 0; i < fr.Len(); i++ {
					vid := fr.ID(i)
					_, present := fr.Lookup(vid)
					if fr.Departed(i) {
						if !migrating[vid] || s.VM(vid) != nil || present {
							t.Fatalf("vm %d departed: migrating=%v still member=%v lookup=%v",
								vid, migrating[vid], s.VM(vid) != nil, present)
						}
						delete(ref, vid)
						delete(migrating, vid)
					} else if !present || s.VM(vid) != ref[vid] {
						t.Fatalf("vm %d stayed but lookup=%v member=%v", vid, present, s.VM(vid) != nil)
					}
				}
			case 6:
				s.Crash()
				clear(ref)
				clear(migrating)
			}
			checkMembership(t, s, ref)
		}
	})
}

// checkMembership compares the server's members against the reference.
func checkMembership(t *testing.T, s *Server, ref map[int]*VMMem) {
	t.Helper()
	ids := s.VMs()
	members := s.Members()
	if len(ids) != len(ref) || len(members) != len(ref) {
		t.Fatalf("server holds %d ids and %d members, reference %d", len(ids), len(members), len(ref))
	}
	for i, id := range ids {
		if i > 0 && ids[i-1] >= id {
			t.Fatalf("ids not ascending: %v", ids)
		}
		if ref[id] == nil || members[i] != ref[id] || members[i].ID != id {
			t.Fatalf("position %d: id %d, member %p, reference %p", i, id, members[i], ref[id])
		}
	}
	for id := -1; id <= 12; id++ {
		if got := s.VM(id); got != ref[id] {
			t.Fatalf("VM(%d) = %p, reference %p", id, got, ref[id])
		}
	}
	if got, want := s.PoolUsed(), s.poolUsedNaive(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("incremental PoolUsed %v != naive %v", got, want)
	}
}
