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
	"github.com/coach-oss/coach/internal/trace"
)

// TestSimServeEquivalence is the sim ≡ serve wall: one trace replayed
// through the simulator, stepped tick by tick, and through serve.Service
// on a virtual clock — per tick, Release the departures, Admit the
// arrivals, then TickDataPlane, through serve's public API only. Both
// run the same core.Shard operations, so every admission decision
// (admitted, cluster, server), every cluster's Placed/UsedServers, the
// fault ledger and the data-plane aggregates must agree exactly after
// every tick. AdmitPressureFrac 0 makes serve's Pick(+Inf) the
// scheduler's Place.
//
// Differences the wall removes or states:
//   - A VM alive across TrainUpTo enters sim at sample TrainUpTo-Start of
//     its series and serve at sample 0; the shared trace starts such VMs
//     at TrainUpTo (wallTrace).
//   - serve applies tick k's fault events inside TickDataPlane, after
//     tick k's releases and admissions; sim applies them before. The two
//     orders agree while an event's shard has no arrival and no departure
//     at its tick. Exact comparison runs up to the first fault event
//     that breaks this; the fixture keeps every event quiet, and the
//     crash/recovery counts are compared to the end regardless.
//   - serve has no clock without a data plane, so it never applies crash
//     events there: only the data-plane-on case replays chaos.
func TestSimServeEquivalence(t *testing.T) {
	cases := []struct {
		name       string
		preset     string
		mitigation agent.Policy // PolicyNone: data plane off
		crossShard bool
	}{
		{"capacity-dp-off", "capacity", agent.PolicyNone, false},
		{"capacity-trim", "capacity", agent.PolicyTrim, false},
		{"chaos-migrate", "chaos", agent.PolicyMigrate, true},
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
			runWall(t, tr, sp, cfg)
		})
	}
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

func runWall(t *testing.T, tr *trace.Trace, sp *scenario.Spec, cfg Config) {
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
	faults := cfg.Faults.Events()

	// checked is the sim ledger after the last exactly compared tick.
	exact, admitted, exactTicks := true, 0, 0
	var checked serve.DataPlaneStats
	for now := cfg.TrainUpTo; now < tr.Horizon; now++ {
		tick := now - cfg.TrainUpTo
		// sim's departure order within a shard: VMs the exchange moved in
		// first, then its own stream, each ascending by id.
		leaving := departures[now]
		immigrant := func(vm *trace.VM) bool {
			return states[vm.HomeShard(len(states))].pos[vm.ID] < 0
		}
		sort.SliceStable(leaving, func(i, j int) bool { return immigrant(leaving[i]) && !immigrant(leaving[j]) })
		for ; len(faults) > 0 && faults[0].Tick <= tick; faults = faults[1:] {
			if exact && !quietAt(states, faults[0], arrivals[now], leaving) {
				t.Logf("fault event %+v falls on a busy tick: exact comparison stops", faults[0])
				exact = false
			}
		}

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
			if exact && (res.Admitted != (want >= 0) || res.Cluster != home || (want >= 0 && res.Server != want)) {
				t.Fatalf("tick %d vm %d: serve admitted=%v cluster %d server %d; sim cluster %d server %d",
					tick, vm.ID, res.Admitted, res.Cluster, res.Server, home, want)
			}
			if res.Admitted {
				admitted++
			}
		}
		for _, st := range states {
			if err := st.advance(now); err != nil {
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
		want := simStats(states)
		if got.DataPlane.Crashes != want.Crashes || got.DataPlane.Recoveries != want.Recoveries {
			t.Fatalf("tick %d: serve crashes/recoveries %d/%d, sim %d/%d", tick,
				got.DataPlane.Crashes, got.DataPlane.Recoveries, want.Crashes, want.Recoveries)
		}
		if !exact {
			continue
		}
		for ci, cs := range got.Clusters {
			if sched := states[ci].sh.Sched; sched != nil && (cs.Placed != sched.Placed() || cs.UsedServers != sched.UsedServers()) {
				t.Fatalf("tick %d cluster %d: serve placed %d on %d servers, sim %d on %d",
					tick, ci, cs.Placed, cs.UsedServers, sched.Placed(), sched.UsedServers())
			}
		}
		if cfg.DataPlane {
			if got := comparable(got.DataPlane); got != want {
				t.Fatalf("tick %d: data plane diverges\n serve %+v\n   sim %+v", tick, got, want)
			}
		}
		exactTicks, checked = tick+1, want
	}

	t.Logf("%d of %d ticks exact: %d admitted; %d crashes, %d evictions; %d trims; migrations same/cross/failed %d/%d/%d",
		exactTicks, tr.Horizon-cfg.TrainUpTo, admitted, checked.Crashes, checked.EvictedVMs, checked.Trims,
		checked.SameShardMigrations, checked.CrossShardMigrations, checked.FailedMigrations)
	switch {
	case admitted == 0:
		t.Fatal("vacuous wall: serve admitted nothing")
	case cfg.MitigationPolicy == agent.PolicyTrim && checked.Trims == 0:
		t.Fatal("vacuous wall: no server trimmed")
	case cfg.CrossShardMigration && checked.CrossShardMigrations == 0:
		t.Fatal("vacuous wall: no cross-shard migration")
	case cfg.Faults != nil && checked.EvictedVMs == 0:
		t.Fatal("vacuous wall: no crash evicted a VM while the comparison was exact")
	}
}

// quietAt reports whether applying fault event e before or after its
// tick's arrivals and departures is the same: its shard admits nothing
// that tick and, for a crash, loses no departing VM. It reads sim's state
// before the tick's arrive.
func quietAt(states []*shardState, e fault.Event, arriving, leaving []*trace.VM) bool {
	for _, vm := range arriving {
		if vm.HomeShard(len(states)) == e.Shard {
			return false
		}
	}
	for _, vm := range leaving {
		if !e.Up && states[e.Shard].pos[vm.ID] >= 0 {
			return false
		}
	}
	return true
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
