package core

import (
	"reflect"
	"testing"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/resources"
)

// TestDataPlaneSkipsIdleServers is the sparse-ticking contract: in a
// scripted fleet where only server 0 ever hosts VMs, the idle servers
// must receive zero full memsim ticks — their per-server tick counter
// (the hook memsim.Server.TickCount exposes) stays at zero while their
// skip counter advances every round.
func TestDataPlaneSkipsIdleServers(t *testing.T) {
	dp := dpFixture(t, 4, agent.PolicyTrim, 0.25, 0.1)
	if err := dp.Attach(0, 1, 16, 2); err != nil {
		t.Fatal(err)
	}
	const rounds = 50
	for i := 0; i < rounds; i++ {
		// Alternate the busy VM's working set so server 0 keeps faulting
		// pages in and never settles into steadiness.
		if i%2 == 0 {
			dp.SetWSS(1, 8)
		} else {
			dp.SetWSS(1, 3)
		}
		if _, _, err := dp.Tick(300); err != nil {
			t.Fatal(err)
		}
	}
	servers := dp.Servers()
	if n := servers[0].Server.TickCount(); n == 0 {
		t.Error("busy server 0 was never fully ticked")
	}
	for i := 1; i < 4; i++ {
		s := servers[i].Server
		if n := s.TickCount(); n != 0 {
			t.Errorf("idle server %d received %d full ticks, want 0", i, n)
		}
		if n := s.SkipCount(); n != rounds {
			t.Errorf("idle server %d skipped %d ticks, want %d", i, n, rounds)
		}
	}
}

// TestDataPlaneSteadyWakesOnMutation: a server that settled into
// steadiness must re-simulate after any externally visible mutation —
// attach, working-set change, detach — and may re-settle afterwards.
func TestDataPlaneSteadyWakesOnMutation(t *testing.T) {
	dp := dpFixture(t, 1, agent.PolicyNone, 0.25, 0.1)
	if err := dp.Attach(0, 1, 16, 2); err != nil {
		t.Fatal(err)
	}
	dp.SetWSS(1, 4)
	settle := func() {
		t.Helper()
		for i := 0; i < 100 && !dp.Steady()[0]; i++ {
			if _, _, err := dp.Tick(300); err != nil {
				t.Fatal(err)
			}
		}
		if !dp.Steady()[0] {
			t.Fatal("server never settled")
		}
	}
	settle()
	ticks := dp.Servers()[0].Server.TickCount()
	// Re-asserting the same working set must NOT wake the server…
	dp.SetWSS(1, 4)
	if _, _, err := dp.Tick(300); err != nil {
		t.Fatal(err)
	}
	if got := dp.Servers()[0].Server.TickCount(); got != ticks {
		t.Errorf("unchanged SetWSS woke the server (%d -> %d full ticks)", ticks, got)
	}
	// …but a changed one must.
	dp.SetWSS(1, 6)
	if _, _, err := dp.Tick(300); err != nil {
		t.Fatal(err)
	}
	if got := dp.Servers()[0].Server.TickCount(); got != ticks+1 {
		t.Errorf("changed SetWSS did not wake the server (%d -> %d full ticks)", ticks, got)
	}
	settle()
	ticks = dp.Servers()[0].Server.TickCount()
	if err := dp.Attach(0, 2, 8, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dp.Tick(300); err != nil {
		t.Fatal(err)
	}
	if got := dp.Servers()[0].Server.TickCount(); got != ticks+1 {
		t.Errorf("attach did not wake the server")
	}
	settle()
	ticks = dp.Servers()[0].Server.TickCount()
	if !dp.Detach(2) {
		t.Fatal("detach failed")
	}
	if _, _, err := dp.Tick(300); err != nil {
		t.Fatal(err)
	}
	if got := dp.Servers()[0].Server.TickCount(); got != ticks+1 {
		t.Errorf("detach did not wake the server")
	}
}

// TestDataPlaneSparseTotalsMatchFullTick is the regression wall for
// the skip path: the same scripted workload replayed on a sparse data
// plane and on one forced to run a full memsim tick on every server
// every round (steady cleared before each Tick) must complete the same
// live migrations on every tick and end with identical cumulative
// Totals and agent Counters — a skipped tick must be observably
// indistinguishable from re-simulating a steady server. Completed
// migrations land warm on the next server, the same way in both runs.
func TestDataPlaneSparseTotalsMatchFullTick(t *testing.T) {
	for _, policy := range []agent.Policy{agent.PolicyTrim, agent.PolicyExtend, agent.PolicyMigrate} {
		t.Run(policy.String(), func(t *testing.T) {
			run := func(fullTick bool) (*DataPlane, [][]CompletedMigration) {
				cfg := DefaultDataPlaneConfig()
				cfg.Agent.Policy = policy
				cfg.PoolFrac = 0.0625
				cfg.UnallocFrac = 0.05
				servers := make([]*cluster.Server, 3)
				for i := range servers {
					servers[i] = &cluster.Server{
						ID:   i,
						Spec: cluster.ServerSpec{Name: "t", Generation: 1, Capacity: resources.NewVector(16, 64, 10, 100)},
					}
				}
				dp, err := NewDataPlane(cfg, servers)
				if err != nil {
					t.Fatal(err)
				}
				for id := 1; id <= 4; id++ {
					if err := dp.Attach(id%2, id, 16, 1); err != nil {
						t.Fatal(err)
					}
				}
				var completed [][]CompletedMigration
				// Phased script: pressure builds, holds (letting servers
				// settle), then releases — covering busy ticks, steady
				// stretches and wake-ups on the same trajectory.
				for tick := 0; tick < 400; tick++ {
					switch {
					case tick == 0:
						for id := 1; id <= 4; id++ {
							dp.SetWSS(id, 5)
						}
					case tick == 150:
						for id := 1; id <= 4; id++ {
							dp.SetWSS(id, 2)
						}
					case tick == 300:
						dp.SetWSS(1, 6)
					}
					if fullTick {
						clear(dp.steady)
					}
					_, done, err := dp.Tick(300)
					if err != nil {
						t.Fatal(err)
					}
					completed = append(completed, append([]CompletedMigration(nil), done...))
					for _, c := range done {
						if _, err := dp.AttachMigrated((c.Server+1)%len(servers), c.VMID, c.SizeGB, c.PAGB, c.WSS, 0.1); err != nil {
							t.Fatal(err)
						}
					}
				}
				return dp, completed
			}
			sparse, sparseDone := run(false)
			full, fullDone := run(true)
			migrations := 0
			for tick := range sparseDone {
				if !reflect.DeepEqual(sparseDone[tick], fullDone[tick]) {
					t.Fatalf("tick %d: sparse completed %+v, full-tick completed %+v", tick, sparseDone[tick], fullDone[tick])
				}
				migrations += len(sparseDone[tick])
			}
			if got, want := sparse.Totals(), full.Totals(); got != want {
				t.Errorf("sparse Totals %+v != full-tick Totals %+v", got, want)
			}
			if got, want := sparse.Counters(), full.Counters(); got != want {
				t.Errorf("sparse Counters %+v != full-tick Counters %+v", got, want)
			}
			var skips, fullSkips int64
			for i, sm := range sparse.Servers() {
				skips += sm.Server.SkipCount()
				fullSkips += full.Servers()[i].Server.SkipCount()
			}
			if skips == 0 || fullSkips != 0 {
				t.Errorf("fixture regression: sparse run skipped %d ticks, full-tick run %d", skips, fullSkips)
			}
			if policy == agent.PolicyMigrate && migrations == 0 {
				t.Error("fixture regression: no live migration completed")
			}
			t.Logf("%d skipped ticks, %d completed migrations", skips, migrations)
		})
	}
}
