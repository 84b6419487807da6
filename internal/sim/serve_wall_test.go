package sim

import (
	"sort"
	"testing"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/memsim"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/serve"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

// TestSimServeEquivalence is the sim ≡ serve wall: one trace replayed
// through the simulator, stepped tick by tick, and through serve.Service
// on a virtual clock — per tick, Release the departures, Admit the
// arrivals, then TickDataPlane, through serve's public API only. Both
// run the same core.Shard operations on one fault clock (a tick's crash
// and recover events apply after its departures and arrivals, before its
// working sets move), so every admission decision (admitted, cluster,
// server), every cluster's Placed/UsedServers, the fault ledger and the
// data-plane aggregates must agree exactly after every tick of the
// horizon. AdmitPressureFrac 0 makes serve's Pick(+Inf) the scheduler's
// Place.
//
// The grid is {capacity, chaos, sparse-churn} × {data plane off, Trim,
// Migrate with cross-shard migration}, less chaos with the data plane
// off: serve has no clock without a data plane, so it never applies
// crash events there. The busy-crash cell pins a crash on the server a
// VM lands on at the crash's own tick, where applying the tick's faults
// before its admissions would place the VM elsewhere.
//
// A VM alive across TrainUpTo enters sim at sample TrainUpTo-Start of
// its series and serve at sample 0; the shared trace starts such VMs at
// TrainUpTo (wallTrace).
func TestSimServeEquivalence(t *testing.T) {
	cases := []struct {
		name       string
		preset     string
		mitigation agent.Policy // PolicyNone: data plane off
		crossShard bool
		busy       *busyCrash
	}{
		{name: "capacity-dp-off", preset: "capacity"},
		{name: "capacity-trim", preset: "capacity", mitigation: agent.PolicyTrim},
		{name: "capacity-migrate", preset: "capacity", mitigation: agent.PolicyMigrate, crossShard: true},
		{name: "chaos-trim", preset: "chaos", mitigation: agent.PolicyTrim},
		{name: "chaos-migrate", preset: "chaos", mitigation: agent.PolicyMigrate, crossShard: true},
		{name: "sparse-churn-dp-off", preset: "sparse-churn"},
		{name: "sparse-churn-trim", preset: "sparse-churn", mitigation: agent.PolicyTrim},
		{name: "sparse-churn-migrate", preset: "sparse-churn", mitigation: agent.PolicyMigrate, crossShard: true},
		{name: "busy-crash", preset: "capacity", mitigation: agent.PolicyTrim,
			busy: &busyCrash{tick: busyTick, vm: busyVM, shard: busyShard, server: busyServer}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			tr, sp := wallTrace(t, c.preset)
			cfg := ConfigForPolicy(scheduler.PolicyAggrCoach)
			cfg.TrainUpTo = tr.Horizon / 2
			if c.mitigation != agent.PolicyNone {
				cfg.DataPlane = true
				cfg.MitigationPolicy = c.mitigation
				cfg.CrossShardMigration = c.crossShard
				cfg.DataPlanePoolFrac = 0.02
				cfg.DataPlaneUnallocFrac = 0.02
			}
			if c.busy != nil {
				sp.Faults = append(sp.Faults, c.busy.fault())
			}
			runWall(t, tr, sp, cfg, c.busy)
		})
	}
}

// The busy-crash cell's pin, read off a run without it: VM busyVM is
// admitted at evaluation tick busyTick onto server busyServer of shard
// busyShard, which the pinned crash takes down at that tick.
const busyTick, busyVM, busyShard, busyServer = 17, 102, 7, 0

// busyCrash is a crash pinned on the server VM vm lands on at
// evaluation tick tick.
type busyCrash struct{ tick, vm, shard, server int }

// fault returns the pinned crash as a spec fault, mid-tick so the day
// converts back to tick exactly; the server recovers two hours later.
func (b *busyCrash) fault() scenario.Fault {
	return scenario.Fault{Kind: "crash", Day: (float64(b.tick) + 0.5) / timeseries.SamplesPerDay,
		Cluster: b.shard, Server: b.server, RecoverHours: 2}
}

// wallTrace generates a small trace of the preset and ends every VM
// alive across the evaluation split at the split, so every evaluated VM
// arrives at or after it and sim's and serve's utilization replay both
// start at the VM's sample 0.
func wallTrace(t *testing.T, preset string) (*trace.Trace, *scenario.Spec) {
	t.Helper()
	full, err := scenario.Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
	sp := full.Scaled(250, 25)
	tr, err := trace.GenerateScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	split := tr.Horizon / 2
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start < split && vm.End > split {
			vm.Runs = vm.Runs.Prefix(split - vm.Start)
			vm.End = split
		}
	}
	return tr, sp
}

// runWall replays tr through both layers and compares them after every
// tick; busy, when set, must admit its VM onto the crashed server.
func runWall(t *testing.T, tr *trace.Trace, sp *scenario.Spec, cfg Config, busy *busyCrash) {
	fleet := cluster.NewFleet(cluster.DefaultClusters(4))
	model, err := predict.TrainLongTerm(tr, cfg.TrainUpTo, cfg.TrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model = model
	if cfg.DataPlane && len(sp.Faults) > 0 {
		var sizes []int
		for _, g := range fleet.Shards() {
			sizes = append(sizes, len(g))
		}
		if cfg.Faults, err = fault.Compile(sp.Faults, sp.Seed, sizes, tr.Horizon-cfg.TrainUpTo); err != nil {
			t.Fatal(err)
		}
	}

	states, err := buildShards(tr, fleet, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exchanging := cfg.CrossShardMigration && len(states) > 1
	x := newExchange(states)

	sc := serve.DefaultConfig()
	sc.FleetConfig = cfg.FleetConfig
	// Hand serve the simulator's model under the key serve derives, so a
	// miss cannot retrain the same forest.
	sc.Cache = serve.NewModelCache()
	sc.Cache.Get(serve.ModelKey{TraceID: serve.Fingerprint(tr), TrainUpTo: cfg.TrainUpTo, Config: cfg.TrainConfig()},
		func() (*predict.LongTerm, error) { return model, nil })
	svc, err := serve.New(tr, fleet, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	arrivals := make(map[int][]*trace.VM)
	departures := make(map[int][]*trace.VM)
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.End <= cfg.TrainUpTo {
			continue
		}
		arrivals[vm.Start] = append(arrivals[vm.Start], vm)
		departures[vm.End] = append(departures[vm.End], vm)
	}

	admitted, ticks, landed := 0, tr.Horizon-cfg.TrainUpTo, false
	var last serve.DataPlaneStats
	for now := cfg.TrainUpTo; now < tr.Horizon; now++ {
		tick := now - cfg.TrainUpTo
		// sim's departure order within a shard: VMs the exchange moved in
		// first, then its own stream, each ascending by id.
		leaving := departures[now]
		immigrant := func(vm *trace.VM) bool {
			return states[vm.HomeShard(len(states))].pos[vm.ID] < 0
		}
		sort.SliceStable(leaving, func(i, j int) bool { return immigrant(leaving[i]) && !immigrant(leaving[j]) })

		for _, st := range states {
			if err := st.arrive(now); err != nil {
				t.Fatal(err)
			}
		}
		for _, vm := range leaving {
			if _, err := svc.Release(vm); err != nil {
				t.Fatal(err)
			}
		}
		for _, vm := range arrivals[now] {
			res, err := svc.Admit(vm)
			if err != nil {
				t.Fatal(err)
			}
			home := vm.HomeShard(len(states))
			want := -1
			if st := states[home]; st.sh.Sched != nil {
				want = st.sh.Sched.ServerOf(vm.ID)
			}
			if res.Admitted != (want >= 0) || res.Cluster != home || (want >= 0 && res.Server != want) {
				t.Fatalf("tick %d vm %d: serve admitted=%v cluster %d server %d; sim cluster %d server %d",
					tick, vm.ID, res.Admitted, res.Cluster, res.Server, home, want)
			}
			if busy != nil && vm.ID == busy.vm {
				if tick != busy.tick || res.Cluster != busy.shard || res.Server != busy.server {
					t.Fatalf("fixture: vm %d lands at tick %d on shard %d server %d, want tick %d shard %d server %d",
						vm.ID, tick, res.Cluster, res.Server, busy.tick, busy.shard, busy.server)
				}
				landed = true
			}
			if res.Admitted {
				admitted++
			}
		}
		for _, st := range states {
			if err := st.advance(now, 0); err != nil {
				t.Fatal(err)
			}
		}
		if exchanging {
			if err := x.apply(); err != nil {
				t.Fatal(err)
			}
		}
		if cfg.DataPlane {
			if err := svc.TickDataPlane(); err != nil {
				t.Fatal(err)
			}
		}

		got := svc.Stats()
		for ci, cs := range got.Clusters {
			if sched := states[ci].sh.Sched; sched != nil && (cs.Placed != sched.Placed() || cs.UsedServers != sched.UsedServers()) {
				t.Fatalf("tick %d cluster %d: serve placed %d on %d servers, sim %d on %d",
					tick, ci, cs.Placed, cs.UsedServers, sched.Placed(), sched.UsedServers())
			}
		}
		last = simStats(states)
		if cfg.DataPlane {
			if got := comparable(got.DataPlane); got != last {
				t.Fatalf("tick %d: data plane diverges\n serve %+v\n   sim %+v", tick, got, last)
			}
		}
		if busy != nil && tick == busy.tick && states[busy.shard].sh.Sched.ServerOf(busy.vm) == busy.server {
			t.Fatalf("fixture: the crash at tick %d left vm %d on server %d", tick, busy.vm, busy.server)
		}
	}

	t.Logf("%d ticks exact: %d admitted; %d crashes, %d evictions; %d trims; migrations same/cross/failed %d/%d/%d",
		ticks, admitted, last.Crashes, last.EvictedVMs, last.Trims,
		last.SameShardMigrations, last.CrossShardMigrations, last.FailedMigrations)
	switch {
	case admitted == 0:
		t.Fatal("vacuous wall: serve admitted nothing")
	case cfg.MitigationPolicy == agent.PolicyTrim && last.Trims == 0:
		t.Fatal("vacuous wall: no server trimmed")
	case cfg.CrossShardMigration && last.CrossShardMigrations == 0:
		t.Fatal("vacuous wall: no cross-shard migration")
	case cfg.Faults != nil && last.EvictedVMs == 0:
		t.Fatal("vacuous wall: no crash evicted a VM")
	case busy != nil && !landed:
		t.Fatalf("fixture: vm %d never arrived", busy.vm)
	}
}

// comparable zeroes the serve-only fields of a DataPlaneStats snapshot:
// configuration echoes, the tick counter, the handoff log depth and the
// what-if scorer counters (sim admits through scheduler.Place, not the
// scorer).
func comparable(d serve.DataPlaneStats) serve.DataPlaneStats {
	d.Enabled, d.Policy, d.Mode, d.Ticks, d.PendingHandoffs = false, "", "", 0, 0
	d.WhatIfBatches, d.WhatIfCandidates = 0, 0
	return d
}

// simStats aggregates the simulator's shards the way serve.Stats does
// (shard order, the same summations), minus the fields comparable clears.
func simStats(states []*shardState) serve.DataPlaneStats {
	var d serve.DataPlaneStats
	var totals memsim.Totals
	var counters core.AgentCounters
	for _, st := range states {
		sh, c := st.sh, st.sh.Stats
		if sh.DP == nil {
			continue
		}
		d.AttachedVMs += sh.DP.Attached()
		d.PoolGB += sh.DP.PoolGB()
		d.PoolUsedGB += sh.DP.PoolUsedGB()
		totals = totals.Add(sh.DP.Totals())
		counters = counters.Add(sh.DP.Counters())
		d.SameShardMigrations += int64(c.SameShardMigrations)
		d.CrossShardMigrations += int64(c.CrossShardMigrations)
		d.FailedMigrations += int64(c.FailedMigrations)
		d.WarmArrivedGB += c.WarmArrivedGB
		d.Crashes += int64(c.Crashes)
		d.Recoveries += int64(c.Recoveries)
		d.EvictedVMs += int64(c.EvictedVMs)
		d.ReplacedVMs += int64(c.ReplacedVMs)
		d.LostVMs += int64(c.LostVMs)
	}
	d.TrimmedGB, d.ExtendedGB, d.MigratedGB = totals.TrimmedGB, totals.ExtendedGB, totals.MigratedGB
	d.HardFaultGB, d.SoftFaultGB, d.SoftFaultFrac = totals.HardFaultGB, totals.SoftFaultGB, totals.SoftFaultFrac()
	d.StolenGB, d.EvictedColdGB = totals.StolenGB, totals.EvictedColdGB
	d.Contentions, d.Trims, d.Extends, d.Migrations = counters.Contentions, counters.Trims, counters.Extends, counters.Migrations
	return d
}

// TestIDRuleSharedBySimAndServe feeds both entry points a trace whose
// ids are offset by one: sim.Run and serve.New index their per-VM tables
// by id, so both must refuse it, with the one error trace states.
func TestIDRuleSharedBySimAndServe(t *testing.T) {
	tr, fleet := fixtures(t)
	offset := *tr
	offset.VMs = append([]trace.VM(nil), tr.VMs...)
	for i := range offset.VMs {
		offset.VMs[i].ID++
	}
	want := offset.CheckIDsAreIndices()
	if want == nil {
		t.Fatal("CheckIDsAreIndices accepts ids offset by one")
	}
	cfg := ConfigForPolicy(scheduler.PolicyCoach)
	cfg.TrainUpTo = tr.Horizon / 2
	if _, err := Run(&offset, fleet, cfg); err == nil || err.Error() != want.Error() {
		t.Errorf("sim.Run: %v, want %v", err, want)
	}
	if _, err := serve.New(&offset, fleet, serve.DefaultConfig()); err == nil || err.Error() != want.Error() {
		t.Errorf("serve.New: %v, want %v", err, want)
	}
	if err := tr.CheckIDsAreIndices(); err != nil {
		t.Errorf("generated trace: %v", err)
	}
}
