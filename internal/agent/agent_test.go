package agent

import (
	"testing"

	"github.com/coach-oss/coach/internal/memsim"
)

// rig builds a server with one VM whose working set can be driven to
// create pool pressure: pool 4GB, VA demand up to 6GB.
func rig(t *testing.T, cfg Config, poolGB, unallocGB float64) (*Agent, *memsim.Server, *memsim.VMMem) {
	t.Helper()
	srv := memsim.NewServer(memsim.DefaultConfig(), poolGB, unallocGB)
	vm, err := memsim.NewVMMem(1, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddVM(vm); err != nil {
		t.Fatal(err)
	}
	a, err := New(cfg, srv)
	if err != nil {
		t.Fatal(err)
	}
	return a, srv, vm
}

// run drives the rig for seconds, setting the working set per tick.
func run(a *Agent, srv *memsim.Server, vm *memsim.VMMem, seconds int, wss func(t int) float64) error {
	for t := 0; t < seconds; t++ {
		vm.SetWSS(wss(t))
		st, err := srv.Tick(1)
		if err != nil {
			return err
		}
		a.Tick(1, st)
	}
	return nil
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MonitorIntervalS = 0
	srv := memsim.NewServer(memsim.DefaultConfig(), 4, 0)
	if _, err := New(cfg, srv); err == nil {
		t.Error("zero monitor interval must fail")
	}
}

func TestStrings(t *testing.T) {
	if PolicyNone.String() != "None" || PolicyTrim.String() != "Trim" ||
		PolicyExtend.String() != "Extend" || PolicyMigrate.String() != "Migrate" {
		t.Error("policy strings wrong")
	}
	if Reactive.String() != "Reactive" || Proactive.String() != "Proactive" {
		t.Error("mode strings wrong")
	}
}

func TestDetectsContention(t *testing.T) {
	a, srv, vm := rig(t, DefaultConfig(), 4, 0)
	// Fill the pool completely: WSS 4 (PA) + 4 VA.
	if err := run(a, srv, vm, 60, func(int) float64 { return 8.5 }); err != nil {
		t.Fatal(err)
	}
	if a.ContentionsDetected == 0 {
		t.Error("full pool must be detected as contention")
	}
}

func TestNoContentionWhenIdle(t *testing.T) {
	a, srv, vm := rig(t, DefaultConfig(), 4, 0)
	if err := run(a, srv, vm, 60, func(int) float64 { return 3 }); err != nil {
		t.Fatal(err)
	}
	if a.ContentionsDetected != 0 {
		t.Errorf("idle server flagged %d contentions", a.ContentionsDetected)
	}
}

func TestPolicyNoneNeverMitigates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyNone
	a, srv, vm := rig(t, cfg, 4, 4)
	if err := run(a, srv, vm, 120, func(int) float64 { return 9 }); err != nil {
		t.Fatal(err)
	}
	if a.TrimsStarted+a.ExtendsStarted+a.MigrationsStarted != 0 {
		t.Error("None policy must not mitigate")
	}
}

func TestTrimPolicyTrimsColdMemory(t *testing.T) {
	// Two VMs: one holds cold memory, the other grows into the pool.
	// The agent must trim the cold holder's pages to make room.
	cfg := DefaultConfig()
	cfg.Policy = PolicyTrim
	srv := memsim.NewServer(memsim.DefaultConfig(), 5, 0)
	holder, _ := memsim.NewVMMem(1, 16, 4)
	grower, _ := memsim.NewVMMem(2, 16, 4)
	srv.AddVM(holder)
	srv.AddVM(grower)
	a, err := New(cfg, srv)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 150; tick++ {
		switch {
		case tick < 20:
			holder.SetWSS(7) // touch 3GB VA
			grower.SetWSS(4)
		case tick < 40:
			holder.SetWSS(4) // holder's 3GB goes cold
			grower.SetWSS(4)
		default:
			holder.SetWSS(4)
			grower.SetWSS(8) // needs 4GB VA; pool 5 with 3 cold occupied
		}
		st, err := srv.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		a.Tick(1, st)
	}
	if a.TrimsStarted == 0 {
		t.Error("trim policy under pressure with cold memory must trim")
	}
	if a.ExtendsStarted != 0 || a.MigrationsStarted != 0 {
		t.Error("trim policy must not escalate")
	}
}

func TestExtendPolicyEscalates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyExtend
	a, srv, vm := rig(t, cfg, 4, 8)
	// No cold memory: straight to pressure beyond the pool.
	if err := run(a, srv, vm, 120, func(int) float64 { return 10 }); err != nil {
		t.Fatal(err)
	}
	if a.ExtendsStarted == 0 {
		t.Error("extend policy must extend when trimming cannot cover")
	}
	if srv.PoolGB() <= 4 {
		t.Errorf("pool did not grow: %v", srv.PoolGB())
	}
}

func TestMigratePolicyEscalates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyMigrate
	a, srv, vm := rig(t, cfg, 4, 0)
	if err := run(a, srv, vm, 120, func(int) float64 { return 10 }); err != nil {
		t.Fatal(err)
	}
	if a.MigrationsStarted == 0 {
		t.Error("migrate policy must migrate when trimming cannot cover")
	}
	_ = vm
}

func TestMigrateOneAtATime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyMigrate
	srv := memsim.NewServer(memsim.DefaultConfig(), 4, 0)
	for i := 1; i <= 3; i++ {
		vm, _ := memsim.NewVMMem(i, 16, 1)
		srv.AddVM(vm)
	}
	a, err := New(cfg, srv)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 60; tick++ {
		for _, vm := range srv.Members() {
			vm.SetWSS(8)
		}
		st, err := srv.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		a.Tick(1, st)
		if srv.MigrationsInFlight() > 1 {
			t.Fatal("more than one concurrent migration")
		}
	}
}

func TestProactiveTriggersOnTrend(t *testing.T) {
	mk := func(mode Mode) (*Agent, int) {
		cfg := DefaultConfig()
		cfg.Policy = PolicyTrim
		cfg.Mode = mode
		a, srv, vm := rig(t, cfg, 8, 0)
		triggeredAt := -1
		// Slow ramp from 4 to 12 over 200s: usage climbs steadily.
		for tick := 0; tick < 200; tick++ {
			vm.SetWSS(4 + 8*float64(tick)/200)
			st, err := srv.Tick(1)
			if err != nil {
				t.Fatal(err)
			}
			a.Tick(1, st)
			if triggeredAt < 0 && a.ReactiveTriggers+a.ProactiveTriggers > 0 {
				triggeredAt = tick
			}
		}
		return a, triggeredAt
	}
	_, reactiveAt := mk(Reactive)
	proactiveAgent, proactiveAt := mk(Proactive)
	if proactiveAt < 0 || reactiveAt < 0 {
		t.Fatalf("triggers never fired: proactive=%d reactive=%d", proactiveAt, reactiveAt)
	}
	if proactiveAt >= reactiveAt {
		t.Errorf("proactive triggered at %ds, not before reactive at %ds", proactiveAt, reactiveAt)
	}
	if proactiveAgent.ProactiveTriggers == 0 {
		t.Error("proactive agent recorded no proactive triggers")
	}
}

func TestMigrationVictimIsHeaviest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyMigrate
	srv := memsim.NewServer(memsim.DefaultConfig(), 6, 0)
	small, _ := memsim.NewVMMem(1, 8, 3)
	big, _ := memsim.NewVMMem(2, 8, 1)
	srv.AddVM(small)
	srv.AddVM(big)
	a, err := New(cfg, srv)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 120 && srv.VM(2) != nil; tick++ {
		small.SetWSS(4) // vaNeed 1
		if srv.VM(2) != nil {
			big.SetWSS(8) // vaNeed 7: the offender
		}
		st, err := srv.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		a.Tick(1, st)
	}
	if srv.VM(2) != nil {
		t.Fatal("offending VM never migrated")
	}
	if srv.VM(1) == nil {
		t.Error("wrong victim: the light VM was migrated")
	}
}

func TestLocalPredictorFed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Proactive
	cfg.Local.WarmupWindows = 2
	a, srv, vm := rig(t, cfg, 4, 0)
	// 20s monitor x 15 observations = one 5-minute window per 300s, so
	// the second window, and the warmup, closes only after 600s.
	six := func(int) float64 { return 6 }
	if err := run(a, srv, vm, 301, six); err != nil {
		t.Fatal(err)
	}
	if a.local.LSTMReady() {
		t.Error("two windows closed after 300s, want one")
	}
	if err := run(a, srv, vm, 300, six); err != nil {
		t.Fatal(err)
	}
	if !a.local.LSTMReady() {
		t.Error("fewer than two windows closed after 600s")
	}
}

// TestReactiveCountersPinned replays one fixed rig run under the Migrate
// ladder: a second VM joins the rig's, and the working sets swing so that
// memory goes cold, gets trimmed, and finally overflows the pool, over
// enough ticks to close several 5-minute windows. The counters were
// recorded when every agent still built and trained a local predictor,
// so they show that Reactive agents decide the same without one.
func TestReactiveCountersPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyMigrate
	a, srv, holder := rig(t, cfg, 6, 0)
	grower, err := memsim.NewVMMem(2, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddVM(grower); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 1500; tick++ {
		switch phase := tick % 300; {
		case phase < 60:
			holder.SetWSS(7) // touch 3GB VA
			grower.SetWSS(4)
		case phase < 120:
			holder.SetWSS(4) // the holder's VA goes cold
			grower.SetWSS(5)
		case phase < 200:
			holder.SetWSS(4)
			grower.SetWSS(8) // needs the cold pages back
		default:
			holder.SetWSS(6)
			grower.SetWSS(4 + float64(phase-200)/10) // overflows the pool
		}
		st, err := srv.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		a.Tick(1, st)
	}
	got := [4]int{a.ContentionsDetected, a.ReactiveTriggers, a.TrimsStarted, a.MigrationsStarted}
	if want := [4]int{4, 4, 2, 1}; got != want {
		t.Errorf("contentions, reactive triggers, trims, migrations = %v, recorded %v", got, want)
	}
}

func TestReactiveAgentHasNoPredictor(t *testing.T) {
	a, _, _ := rig(t, DefaultConfig(), 4, 0)
	if a.local != nil {
		t.Error("a Reactive agent never reads a forecast, so it must not build a predictor")
	}
}

// TestReactiveTickIdleDoesNotAllocate drives a Reactive agent on a steady
// server at the fleet's 300 s tick, where every call is a monitoring
// pass: the skip path must cost no allocation.
func TestReactiveTickIdleDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	a, srv, vm := rig(t, DefaultConfig(), 4, 0)
	vm.SetWSS(3)
	for i := 0; i < 10 && !srv.Quiet(); i++ {
		st, err := srv.Tick(300)
		if err != nil {
			t.Fatal(err)
		}
		a.Tick(300, st)
	}
	if !srv.Quiet() {
		t.Fatal("fixture regression: the server never settled")
	}
	if n := testing.AllocsPerRun(100, func() { a.TickIdle(300) }); n != 0 {
		t.Errorf("TickIdle allocates %v times per call", n)
	}
	if a.ContentionsDetected != 0 {
		t.Errorf("steady server flagged %d contentions", a.ContentionsDetected)
	}
}
