package core

import (
	"testing"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/timeseries"
)

// shardFixture builds a shard over n identical servers, with or without a
// data plane.
func shardFixture(t *testing.T, n int, dataPlane bool) *Shard {
	t.Helper()
	servers := make([]*cluster.Server, n)
	for i := range servers {
		servers[i] = &cluster.Server{
			ID:   i,
			Spec: cluster.ServerSpec{Name: "t", Generation: 1, Capacity: resources.NewVector(16, 64, 10, 100)},
		}
	}
	var dp *DataPlaneConfig
	if dataPlane {
		c := DefaultDataPlaneConfig()
		c.Agent.Policy = agent.PolicyMigrate
		dp = &c
	}
	sh, err := NewShard(0, servers, timeseries.Windows{PerDay: 6}, dp, DefaultMigrationConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestShardCrashSparesReservation pins the eviction rule with a data
// plane: a crash evicts only VMs whose memory is attached on the server,
// so a reservation an in-flight cross-shard handoff holds there stays
// with the handoff; the evicted VM is re-admitted with its memory.
func TestShardCrashSparesReservation(t *testing.T) {
	sh := shardFixture(t, 3, true)
	attached := oversubCVM(t, 1, 4, 16, 0.5)
	if err := sh.AdmitAt(attached, 0); err != nil {
		t.Fatal(err)
	}
	reserved := oversubCVM(t, 2, 4, 16, 0.5)
	if err := sh.Eng.Reserve(MigrationRequest{VMID: 2, CVM: reserved}, 0); err != nil {
		t.Fatal(err)
	}

	evicted, err := sh.Crash(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].VMID != 1 || evicted[0].CVM != attached {
		t.Fatalf("evictions = %+v, want only the attached vm 1", evicted)
	}
	if sh.Sched.ServerOf(2) != 0 || sh.Sched.CVM(2) != reserved {
		t.Fatal("the crash touched the handoff's reservation")
	}
	to := evicted[0].Server
	if to <= 0 || sh.Sched.ServerOf(1) != to || sh.DP.ServerOf(1) != to {
		t.Fatalf("vm 1 re-admitted to %d: scheduler says %d, memory %d", to, sh.Sched.ServerOf(1), sh.DP.ServerOf(1))
	}
	if want := (ShardStats{Crashes: 1, EvictedVMs: 1, ReplacedVMs: 1}); sh.Stats != want {
		t.Fatalf("stats %+v, want %+v", sh.Stats, want)
	}
	if !sh.Release(1) || sh.DP.ServerOf(1) != -1 || sh.Release(1) {
		t.Fatal("release must drop the VM and its memory exactly once")
	}
}

// TestShardCrashWithoutDataPlane pins the scheduler-only path: evictions
// re-place through the scheduler's best fit (the fullest feasible server,
// not the empty one), a VM nothing can hold is lost, and every eviction
// is either replaced or lost.
func TestShardCrashWithoutDataPlane(t *testing.T) {
	sh := shardFixture(t, 3, false)
	for _, p := range []struct {
		id, server   int
		cores, memGB float64
	}{
		{1, 0, 2, 8},   // small: fits elsewhere
		{2, 0, 12, 48}, // large: fits nowhere once server 0 is gone
		{3, 1, 8, 32},
		{4, 2, 6, 24},
	} {
		if err := sh.AdmitAt(oversubCVM(t, p.id, p.cores, p.memGB, 1), p.server); err != nil {
			t.Fatal(err)
		}
	}

	evicted, err := sh.Crash(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 2 || evicted[0].VMID != 1 || evicted[1].VMID != 2 {
		t.Fatalf("evictions = %+v, want vms 1 and 2 in id order", evicted)
	}
	if evicted[0].Server != 1 {
		t.Errorf("small vm re-placed on %d, want best-fit server 1", evicted[0].Server)
	}
	if evicted[1].Server != -1 || sh.Sched.ServerOf(2) != -1 {
		t.Errorf("large vm re-placed on %d, want lost", evicted[1].Server)
	}
	st := sh.Stats
	if st.EvictedVMs != 2 || st.ReplacedVMs != 1 || st.LostVMs != 1 || st.ReplacedVMs+st.LostVMs != st.EvictedVMs {
		t.Fatalf("stats %+v: want 2 evicted = 1 replaced + 1 lost", st)
	}
}

// TestShardFaultNoOps pins the idempotence the fault schedule relies on:
// crashing a down or unknown server and recovering an up one change
// nothing, and a shard without servers ignores faults and admits
// nothing.
func TestShardFaultNoOps(t *testing.T) {
	sh := shardFixture(t, 2, true)
	if err := sh.AdmitAt(oversubCVM(t, 1, 4, 16, 0.5), 0); err != nil {
		t.Fatal(err)
	}
	sh.Recover(0)
	if _, err := sh.Crash(0); err != nil {
		t.Fatal(err)
	}
	before := sh.Stats
	for _, srv := range []int{0, -1, 2} {
		if ev, err := sh.Crash(srv); ev != nil || err != nil {
			t.Fatalf("Crash(%d) = %v, %v; want a no-op", srv, ev, err)
		}
	}
	sh.Recover(1)
	if sh.Stats != before || before.Crashes != 1 || before.Recoveries != 0 {
		t.Fatalf("no-op faults moved the stats: %+v, then %+v", before, sh.Stats)
	}
	sh.Recover(0)
	if sh.Sched.Down(0) || sh.Stats.Recoveries != 1 {
		t.Fatal("recovering the down server must bring it back once")
	}

	empty, err := NewShard(3, nil, timeseries.Windows{PerDay: 6}, nil, DefaultMigrationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ev, err := empty.Crash(0); ev != nil || err != nil || empty.Release(1) {
		t.Fatal("a shard without servers must ignore faults and hold nothing")
	}
	empty.Recover(0)
	if empty.Stats != (ShardStats{}) || empty.Sched != nil || empty.Scorer != nil {
		t.Fatalf("empty shard %+v", empty)
	}
}

// TestShardCountPlanKinds pins migration accounting: each plan kind bumps
// exactly its own counter, and every kind adds its warm volume.
func TestShardCountPlanKinds(t *testing.T) {
	sh := shardFixture(t, 1, true)
	steps := []struct {
		plan MigrationPlan
		want ShardStats
	}{
		{MigrationPlan{WarmGB: 1}, ShardStats{SameShardMigrations: 1, WarmArrivedGB: 1}},
		{MigrationPlan{Relanded: true, WarmGB: 2},
			ShardStats{SameShardMigrations: 1, FailedMigrations: 1, WarmArrivedGB: 3}},
		{MigrationPlan{CrossShard: true, WarmGB: 4},
			ShardStats{SameShardMigrations: 1, FailedMigrations: 1, CrossShardMigrations: 1, WarmArrivedGB: 7}},
	}
	for i, s := range steps {
		sh.Count(s.plan)
		if sh.Stats != s.want {
			t.Fatalf("after plan %d %+v: stats %+v, want %+v", i, s.plan, sh.Stats, s.want)
		}
	}
}
