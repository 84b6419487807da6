package core

import (
	"math"
	"testing"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/timeseries"
)

// oversubCVM builds a CoachVM whose memory guaranteed portion is
// guarFrac of the allocation (bucketed), leaving the rest oversubscribed.
func oversubCVM(t *testing.T, id int, cores, memGB, guarFrac float64) *coachvm.CVM {
	t.Helper()
	w := timeseries.Windows{PerDay: 6}
	pred := coachvm.Prediction{Windows: w, Percentile: 50}
	for _, k := range resources.Kinds {
		pred.Pct[k] = make([]float64, w.PerDay)
		pred.Max[k] = make([]float64, w.PerDay)
		for ti := 0; ti < w.PerDay; ti++ {
			pred.Pct[k][ti] = guarFrac
			pred.Max[k][ti] = 1
		}
	}
	cvm, err := coachvm.New(id, resources.NewVector(cores, memGB, 1, 32), pred)
	if err != nil {
		t.Fatal(err)
	}
	return cvm
}

// engineFixture builds a shard (scheduler + data plane + engine) over n
// identical servers.
func engineFixture(t *testing.T, n int, cfg MigrationConfig, poolFrac float64) (*MigrationEngine, *scheduler.Scheduler, *DataPlane) {
	t.Helper()
	dp := dpFixture(t, n, agent.PolicyMigrate, poolFrac, 0)
	servers := make([]*cluster.Server, n)
	for i := range servers {
		servers[i] = &cluster.Server{
			ID:   i,
			Spec: cluster.ServerSpec{Name: "t", Generation: 1, Capacity: resources.NewVector(16, 64, 10, 100)},
		}
	}
	sched, err := scheduler.NewOverServers(servers, timeseries.Windows{PerDay: 6})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewMigrationEngine(cfg, 0, sched, dp)
	if err != nil {
		t.Fatal(err)
	}
	return eng, sched, dp
}

// place admits a CoachVM at an explicit server in both the scheduler and
// the data plane, the way sim and serve do.
func place(t *testing.T, sched *scheduler.Scheduler, dp *DataPlane, cvm *coachvm.CVM, server int) {
	t.Helper()
	if err := sched.PlaceAt(cvm, server); err != nil {
		t.Fatal(err)
	}
	size, pa := cvm.Alloc[resources.Memory], cvm.Guaranteed[resources.Memory]
	if err := dp.Attach(server, cvm.ID, size, pa); err != nil {
		t.Fatal(err)
	}
}

func TestNewMigrationEngineValidation(t *testing.T) {
	_, sched, dp := engineFixture(t, 2, DefaultMigrationConfig(), 0.25)
	bad := DefaultMigrationConfig()
	bad.DirtyFrac = 1.5
	if _, err := NewMigrationEngine(bad, 0, sched, dp); err == nil {
		t.Error("dirty fraction above 1 must fail")
	}
	bad = DefaultMigrationConfig()
	bad.PressureFrac = 0
	if _, err := NewMigrationEngine(bad, 0, sched, dp); err == nil {
		t.Error("zero pressure fraction must fail")
	}
	if _, err := NewMigrationEngine(DefaultMigrationConfig(), 0, nil, dp); err == nil {
		t.Error("nil scheduler must fail")
	}
}

// TestEngineMovesBookkeepingAndMemoryTogether is the tentpole invariant:
// after a completed live migration resolves, the scheduler's capacity
// bookkeeping and the VM's memory agree on the destination, the
// destination came from the scheduler's placement ranking, and the
// pre-copied working set arrived warm.
func TestEngineMovesBookkeepingAndMemoryTogether(t *testing.T) {
	// Pool 4GB per server (64 * 0.0625): three 4GB working sets with 1GB
	// PA portions overwhelm server 0's pool and the agent migrates one.
	eng, sched, dp := engineFixture(t, 2, DefaultMigrationConfig(), 0.0625)
	for id := 1; id <= 3; id++ {
		place(t, sched, dp, oversubCVM(t, id, 2, 16, 0.05), 0)
	}
	var plans []MigrationPlan
	for tick := 0; tick < 600 && len(plans) == 0; tick++ {
		for id := 1; id <= 3; id++ {
			dp.SetWSS(id, 4)
		}
		_, completed, err := dp.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		got, reqs, err := eng.Resolve(tick, completed)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) != 0 {
			t.Fatal("same-shard engine must not emit cross-shard requests")
		}
		plans = append(plans, got...)
	}
	if len(plans) == 0 {
		t.Fatal("no migration resolved")
	}
	p := plans[0]
	if p.Relanded || p.From != 0 || p.To != 1 {
		t.Fatalf("plan %+v, want a 0->1 landing", p)
	}
	if sched.ServerOf(p.VMID) != p.To {
		t.Error("scheduler bookkeeping did not move with the migration")
	}
	if dp.ServerOf(p.VMID) != p.To {
		t.Error("memory did not move with the migration")
	}
	vm := dp.Servers()[p.To].Server.VM(p.VMID)
	if vm == nil {
		t.Fatal("migrated VM missing from target server")
	}
	if vm.WSS() != 4 {
		t.Errorf("migrated VM working set %v, want 4", vm.WSS())
	}
	// Pre-copied pages land resident: 80% of the pending VA demand with
	// the default 20% dirty fraction (the target pool is empty, so the
	// warm admission is not clamped).
	if want := 0.8 * vm.Missing() / 0.2 * 1; p.WarmGB <= 0 {
		t.Errorf("no warm arrival: plan %+v, residual missing %v (want warm ~%v)", p, vm.Missing(), want)
	}
	if res := vm.ResidentVA(); res <= 0 {
		t.Error("migrated VM arrived fully cold")
	}
	if math.Abs(vm.ResidentVA()-p.WarmGB) > 1e-6 {
		t.Errorf("resident %v != warm-arrived %v", vm.ResidentVA(), p.WarmGB)
	}
}

// TestEngineRelandsWhenNothingFits pins the failure path: a single-server
// shard has no migration target, so the VM re-lands on its source fully
// warm and the plan is marked Relanded.
func TestEngineRelandsWhenNothingFits(t *testing.T) {
	eng, sched, dp := engineFixture(t, 1, DefaultMigrationConfig(), 0.0625)
	for id := 1; id <= 3; id++ {
		place(t, sched, dp, oversubCVM(t, id, 2, 16, 0.05), 0)
	}
	var plans []MigrationPlan
	for tick := 0; tick < 600 && len(plans) == 0; tick++ {
		for id := 1; id <= 3; id++ {
			dp.SetWSS(id, 4)
		}
		_, completed, err := dp.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.Resolve(tick, completed)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, got...)
	}
	if len(plans) == 0 {
		t.Skip("agent never migrated on the single-server fixture")
	}
	p := plans[0]
	if !p.Relanded || p.From != 0 || p.To != 0 {
		t.Fatalf("plan %+v, want a relanded 0->0", p)
	}
	if sched.ServerOf(p.VMID) != 0 || dp.ServerOf(p.VMID) != 0 {
		t.Error("relanded VM must stay on its source in both planes")
	}
}

// TestEngineEmitsCrossShardRequests pins the escape valve: with
// CrossShard set and no unpressured same-shard target, Resolve emits a
// MigrationRequest instead of settling, leaving the source reservation
// in place (two-phase: capacity stays held until the apply step commits).
func TestEngineEmitsCrossShardRequests(t *testing.T) {
	cfg := DefaultMigrationConfig()
	cfg.CrossShard = true
	eng, sched, dp := engineFixture(t, 1, cfg, 0.0625)
	for id := 1; id <= 3; id++ {
		place(t, sched, dp, oversubCVM(t, id, 2, 16, 0.05), 0)
	}
	var reqs []MigrationRequest
	lastTick := -1
	for tick := 0; tick < 600 && len(reqs) == 0; tick++ {
		for id := 1; id <= 3; id++ {
			dp.SetWSS(id, 4)
		}
		_, completed, err := dp.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		plans, got, err := eng.Resolve(tick, completed)
		if err != nil {
			t.Fatal(err)
		}
		if len(plans) != 0 {
			t.Fatalf("cross-shard engine settled locally with no local target: %+v", plans)
		}
		reqs, lastTick = got, tick
	}
	if len(reqs) == 0 {
		t.Skip("agent never migrated on the single-server fixture")
	}
	r := reqs[0]
	if r.SrcShard != 0 || r.SrcServer != 0 || r.Tick != lastTick {
		t.Errorf("request provenance wrong: %+v", r)
	}
	if r.CVM == nil || r.CVM.ID != r.VMID || r.SizeGB != 16 || r.WSS != 4 {
		t.Errorf("request payload wrong: %+v", r)
	}
	// Reservation still held at the source.
	if sched.ServerOf(r.VMID) != 0 {
		t.Error("source reservation released before commit")
	}
	// Memory is in flight.
	if dp.ServerOf(r.VMID) != -1 {
		t.Error("in-flight VM still attached")
	}
	// The apply step's failure path: hand the request back for relanding.
	plan, err := eng.Reland(CompletedMigration{
		VMID: r.VMID, Server: r.SrcServer, SizeGB: r.SizeGB, PAGB: r.PAGB, WSS: r.WSS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Relanded || dp.ServerOf(r.VMID) != r.SrcServer {
		t.Errorf("reland failed: %+v", plan)
	}
}

// TestPickPlacementPressureFilter checks the shared placement decision
// (Rollout.Pick): servers are taken in the scheduler's ranking order,
// skipping pressured pools.
func TestPickPlacementPressureFilter(t *testing.T) {
	_, sched, dp := engineFixture(t, 3, DefaultMigrationConfig(), 0.0625)
	// Pressure server 1's pool (the scheduler's best-fit favourite once
	// it holds the most load): attach and touch a 4GB working set.
	place(t, sched, dp, oversubCVM(t, 10, 4, 16, 0.05), 1)
	dp.SetWSS(10, 5)
	for i := 0; i < 5; i++ { // let the 4GB VA demand saturate the 4GB pool
		if _, _, err := dp.Tick(1); err != nil {
			t.Fatal(err)
		}
	}
	if p := dp.PressureOf(1); p < 0.9 {
		t.Fatalf("fixture: server 1 pool pressure %v, want ~1", p)
	}
	probe := oversubCVM(t, 11, 2, 16, 0.05)
	best := ranked(sched, probe, -1)[0].server
	if best != 1 {
		t.Fatalf("fixture: best-fit candidate is %d, want the loaded server 1", best)
	}
	scorer := NewWhatIfScorer(sched, dp)
	pick := func(needGB, bar float64) int { return scorer.Score(probe, needGB).Pick(-1, bar) }
	if got := pick(0, math.Inf(1)); got != best {
		t.Errorf("unfiltered pick %d, want the ranking head %d", got, best)
	}
	c := pick(0, 0.75)
	if c < 0 {
		t.Fatal("no unpressured candidate found")
	}
	if c == 1 {
		t.Error("pressure filter did not skip the saturated pool")
	}
	// With an impossible pressure bar nothing qualifies.
	if got := pick(0, 0); got >= 0 {
		t.Errorf("server %d passed an impossible pressure bar", got)
	}
	// The projection counts the incoming working set: a demand larger
	// than any empty pool (4GB here) disqualifies every server.
	if got := pick(64, 0.75); got >= 0 {
		t.Errorf("a working set no pool can absorb still found server %d", got)
	}
	// A small incoming demand still lands on an unpressured pool.
	if got := pick(1, 0.75); got < 0 || got == 1 {
		t.Errorf("small demand should land on an empty pool, got %d", got)
	}
}
