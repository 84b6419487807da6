package serve

import (
	"errors"
	"sync"
	"testing"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

var (
	handoffOnce  sync.Once
	handoffTrace *trace.Trace
)

// handoffFixture builds the hot/cold cross-shard service and admits the
// evaluation population, so handoffs fire within a bounded number of
// ticks. Its trace is the sparse-churn preset, whose churning population
// keeps the single hot server's tiny pool contended; the capacity mix
// fills that server with one large resident VM and never migrates.
func handoffFixture(t *testing.T) *Service {
	t.Helper()
	handoffOnce.Do(func() {
		sp, err := scenario.Preset("sparse-churn")
		if err != nil {
			t.Fatal(err)
		}
		if handoffTrace, err = trace.GenerateScenario(sp.Scaled(300, 30)); err != nil {
			t.Fatal(err)
		}
	})
	tr := handoffTrace
	if tr == nil {
		t.Fatal("trace generation failed earlier")
	}
	sc := DefaultConfig()
	sc.Cache = testCache
	sc.FleetConfig = core.FleetConfigForPolicy(scheduler.PolicyAggrCoach)
	sc.DataPlane = true
	sc.MitigationPolicy = agent.PolicyMigrate
	sc.CrossShardMigration = true
	sc.DataPlanePoolFrac = 0.02
	sc.DataPlaneUnallocFrac = 0.02
	svc, err := New(tr, serveHotColdFleet(), sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start >= tr.Horizon/2 {
			if _, err := svc.Admit(vm); err != nil {
				t.Fatal(err)
			}
		}
	}
	return svc
}

// parkHandoff ticks the fixture until an injected crash point parks a
// handoff intent mid-protocol, returning the parked VM's id.
func parkHandoff(t *testing.T, svc *Service) int {
	t.Helper()
	for i := 0; i < 200; i++ {
		if err := svc.TickDataPlane(); err != nil {
			t.Fatal(err)
		}
		svc.intentMu.Lock()
		for id := range svc.intents {
			svc.intentMu.Unlock()
			return id
		}
		svc.intentMu.Unlock()
	}
	t.Fatal("no handoff parked — the crash point never fired")
	return -1
}

// shardsHolding returns the shards whose scheduler has vm id placed and
// the shards whose data plane has its memory attached.
func shardsHolding(svc *Service, id int) (sched, mem []int) {
	for ci, sh := range svc.shards {
		sh.mu.Lock()
		if sh.Sched != nil && sh.Sched.ServerOf(id) >= 0 {
			sched = append(sched, ci)
		}
		if sh.DP != nil && sh.DP.ServerOf(id) >= 0 {
			mem = append(mem, ci)
		}
		sh.mu.Unlock()
	}
	return sched, mem
}

// TestHandoffCrashPointsExhaustive kills the handoff coordinator at
// every crash point of the pick/reserve/release/commit protocol and
// proves the write-ahead intent log recovers: after the next tick's
// recovery sweep the VM is placed in exactly one shard with its memory
// attached there (never lost, never double-placed), the intent log is
// empty, and Release finds the VM wherever it ended up.
func TestHandoffCrashPointsExhaustive(t *testing.T) {
	for _, phase := range scenario.HandoffPhases {
		phase := phase
		t.Run(phase, func(t *testing.T) {
			t.Parallel()
			svc := handoffFixture(t)
			svc.injector = fault.InjectorForCrashes(fault.HandoffCrash{Phase: phase, Nth: 1})
			id := parkHandoff(t, svc)

			// The next tick's recovery sweep must finish what the crashed
			// coordinator started.
			if err := svc.TickDataPlane(); err != nil {
				t.Fatal(err)
			}
			if n := svc.pendingHandoffs(); n != 0 {
				t.Fatalf("%d intents still parked after recovery", n)
			}
			sched, mem := shardsHolding(svc, id)
			if len(sched) != 1 {
				t.Fatalf("vm %d placed in %v shards after recovery, want exactly 1", id, sched)
			}
			if len(mem) != 1 || mem[0] != sched[0] {
				t.Fatalf("vm %d memory in shards %v, bookkeeping in %v", id, mem, sched)
			}
			sh := svc.shards[sched[0]]
			sh.mu.Lock()
			tracked := sh.dpVMs[id] != nil
			sh.mu.Unlock()
			if !tracked {
				t.Fatalf("vm %d has no utilization tracking in shard %d", id, sched[0])
			}
			released, err := svc.Release(svc.VM(id))
			if err != nil || !released {
				t.Fatalf("release after recovery = %v, %v", released, err)
			}
		})
	}
}

// TestHandoffCrashPointsConcurrentRelease re-runs every crash point
// with the other racer: a client Release arriving while the intent is
// parked. Release must drive the interrupted protocol itself — rolling
// forward past the point of no return, cancelling before it — and the
// VM must end up cleanly gone from every shard.
func TestHandoffCrashPointsConcurrentRelease(t *testing.T) {
	for _, phase := range scenario.HandoffPhases {
		phase := phase
		t.Run(phase, func(t *testing.T) {
			t.Parallel()
			svc := handoffFixture(t)
			svc.injector = fault.InjectorForCrashes(fault.HandoffCrash{Phase: phase, Nth: 1})
			id := parkHandoff(t, svc)

			released, err := svc.Release(svc.VM(id))
			if err != nil || !released {
				t.Fatalf("release of parked vm = %v, %v", released, err)
			}
			// One more tick: the sweep retires any intent the Release
			// raced past (e.g. a still-held reservation to cancel).
			if err := svc.TickDataPlane(); err != nil {
				t.Fatal(err)
			}
			if n := svc.pendingHandoffs(); n != 0 {
				t.Fatalf("%d intents still parked after release", n)
			}
			sched, mem := shardsHolding(svc, id)
			if len(sched) != 0 || len(mem) != 0 {
				t.Fatalf("released vm %d still held: sched=%v mem=%v", id, sched, mem)
			}
			if svc.routedShard(id) >= 0 {
				t.Fatalf("released vm %d still routed", id)
			}
		})
	}
}

// TestServeDegradedMode pins the train-fail fault: admission keeps
// working fully guaranteed (Degraded on every decision and in Stats),
// prediction fails with ErrModelUnavailable, and readiness reports
// not-ready so rollout gates hold traffic.
func TestServeDegradedMode(t *testing.T) {
	sched, err := fault.Compile([]scenario.Fault{{Kind: "train-fail"}}, 1, []int{1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = sched
	svc := newTestService(t, cfg)

	if err := svc.Warm(); !errors.Is(err, ErrModelUnavailable) {
		t.Fatalf("Warm under train-fail = %v, want ErrModelUnavailable", err)
	}
	if !svc.degraded.Load() {
		t.Fatal("service not degraded after injected training failure")
	}
	if ready, reason := svc.Ready(); ready || reason == "" {
		t.Fatalf("Ready = (%v, %q), want not-ready with a reason", ready, reason)
	}
	if _, _, err := svc.Predict(&getTrace(t).VMs[0]); !errors.Is(err, ErrModelUnavailable) {
		t.Fatalf("Predict under train-fail = %v, want ErrModelUnavailable", err)
	}

	admitted := 0
	for _, vm := range evalVMs(getTrace(t)) {
		res, err := svc.Admit(vm)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded {
			t.Fatalf("admission decision for vm %d not marked degraded", vm.ID)
		}
		if res.Admitted {
			admitted++
			if res.Oversubscribed {
				t.Fatalf("vm %d oversubscribed without a model", vm.ID)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("degraded mode admitted nothing")
	}
	if st := svc.Stats(); !st.Degraded {
		t.Fatal("stats do not report degraded")
	}
}

// TestServeCrashAndRecoverEvents applies a compiled crash/recover pair
// through TickDataPlane and checks the serving-side failure accounting:
// evicted VMs are re-admitted or lost (counters add up), a lost VM's
// route is cleared so Release reports it gone, and the server returns
// to service on the recovery event.
func TestServeCrashAndRecoverEvents(t *testing.T) {
	tr := getTrace(t)
	fleet := cluster.NewFleet(cluster.DefaultClusters(2))
	sizes := make([]int, 0, fleet.NumClusters())
	for _, servers := range fleet.Shards() {
		sizes = append(sizes, len(servers))
	}
	faults, err := fault.Compile([]scenario.Fault{
		{Kind: "crash", Day: 0, Cluster: 0, Server: 0, RecoverHours: 0.05},
	}, 1, sizes, 1000)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Cache = testCache
	cfg.DataPlane = true
	cfg.MitigationPolicy = agent.PolicyTrim
	cfg.Faults = faults
	svc, err := New(tr, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	for _, vm := range evalVMs(tr) {
		if _, err := svc.Admit(vm); err != nil {
			t.Fatal(err)
		}
	}
	sh := svc.shards[0]
	sh.mu.Lock()
	victims := sh.Sched.VMsOn(0)
	sh.mu.Unlock()
	if len(victims) == 0 {
		t.Fatal("fixture placed nothing on the crash target")
	}

	// Tick 0 applies the crash, tick 1 the recovery.
	if err := svc.TickDataPlane(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats().DataPlane
	if st.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", st.Crashes)
	}
	if st.EvictedVMs != int64(len(victims)) {
		t.Fatalf("evicted = %d, want %d", st.EvictedVMs, len(victims))
	}
	if st.ReplacedVMs+st.LostVMs != st.EvictedVMs {
		t.Fatalf("accounting broken: %d replaced + %d lost != %d evicted",
			st.ReplacedVMs, st.LostVMs, st.EvictedVMs)
	}
	for _, id := range victims {
		sh.mu.Lock()
		srv := sh.Sched.ServerOf(id)
		sh.mu.Unlock()
		if srv == 0 {
			t.Fatalf("vm %d still on the crashed server", id)
		}
		if srv < 0 {
			// Lost: the route must be cleared so Release reports it gone.
			released, err := svc.Release(svc.VM(id))
			if err != nil || released {
				t.Fatalf("release of lost vm %d = %v, %v, want (false, nil)", id, released, err)
			}
		} else if sh.DP.ServerOf(id) != srv {
			t.Fatalf("vm %d bookkeeping on %d but memory on %d", id, srv, sh.DP.ServerOf(id))
		}
	}

	if err := svc.TickDataPlane(); err != nil {
		t.Fatal(err)
	}
	st = svc.Stats().DataPlane
	if st.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", st.Recoveries)
	}
	sh.mu.Lock()
	down := sh.Sched.Down(0)
	sh.mu.Unlock()
	if down {
		t.Fatal("server still down after the recovery event")
	}
}
