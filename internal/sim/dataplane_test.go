package sim

import (
	"reflect"
	"testing"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

// dataPlaneConfig returns a configuration whose data plane actually
// contends: P50 guaranteed portions (AggrCoach) spill working sets into
// the oversubscribed region and a 2% pool exhausts under them.
func dataPlaneConfig(t *testing.T, policy agent.Policy) Config {
	t.Helper()
	tr, _ := fixtures(t)
	cfg := ConfigForPolicy(scheduler.PolicyAggrCoach)
	cfg.TrainUpTo = tr.Horizon / 2
	cfg.DataPlane = true
	cfg.MitigationPolicy = policy
	cfg.DataPlanePoolFrac = 0.02
	cfg.DataPlaneUnallocFrac = 0.02
	return cfg
}

// sharedModel trains one predictor for a config so repeated runs isolate
// the replay engine.
func sharedModel(t *testing.T, cfg Config) *predict.LongTerm {
	t.Helper()
	tr, _ := fixtures(t)
	model, err := predict.TrainLongTerm(tr, cfg.TrainUpTo, cfg.TrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestDataPlaneDeterministicAcrossWorkers extends the engine's hard
// requirement to the memory data plane: the merged Result — including
// every DataPlaneResult field (volumes, counters, first-mitigation ticks
// and the latency histogram) — must be byte-identical whether shards
// replay serially or on any number of workers.
func TestDataPlaneDeterministicAcrossWorkers(t *testing.T) {
	tr, fleet := fixtures(t)
	cfg := dataPlaneConfig(t, agent.PolicyExtend)
	cfg.Model = sharedModel(t, cfg)

	var base *Result
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		res, err := Run(tr, fleet, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.DataPlane == nil {
			t.Fatal("DataPlane result missing")
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("Workers=%d result differs from Workers=1:\n  base dp: %+v\n  got dp:  %+v",
				workers, base.DataPlane, res.DataPlane)
		}
	}
}

// TestDataPlanePolicies checks the fleet-scale mitigation ladder's
// observable counters per policy: None never mitigates but thrashes;
// Trim only trims; Extend and Migrate escalate within their lane.
func TestDataPlanePolicies(t *testing.T) {
	tr, fleet := fixtures(t)
	results := make(map[agent.Policy]*DataPlaneResult)
	var model *predict.LongTerm
	for _, p := range []agent.Policy{agent.PolicyNone, agent.PolicyTrim, agent.PolicyExtend, agent.PolicyMigrate} {
		cfg := dataPlaneConfig(t, p)
		if model == nil {
			model = sharedModel(t, cfg)
		}
		cfg.Model = model
		res, err := Run(tr, fleet, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		dp := res.DataPlane
		if dp == nil {
			t.Fatalf("%s: no data-plane result", p)
		}
		if dp.Policy != p {
			t.Errorf("result policy %s, want %s", dp.Policy, p)
		}
		if dp.VMTicks == 0 || dp.Servers == 0 {
			t.Fatalf("%s: data plane did no work: %+v", p, dp)
		}
		results[p] = dp
	}

	none := results[agent.PolicyNone]
	if none.Counters.Trims+none.Counters.Extends+none.Counters.Migrations != 0 {
		t.Error("None policy must not mitigate")
	}
	if none.Totals.StolenGB <= 0 {
		t.Error("None policy under pool pressure must steal working-set memory")
	}
	if none.Counters.Contentions == 0 {
		t.Error("None policy never detected contention despite a 2% pool")
	}

	trim := results[agent.PolicyTrim]
	if trim.Counters.Trims == 0 || trim.Totals.TrimmedGB <= 0 {
		t.Error("Trim policy never trimmed")
	}
	if trim.Counters.Extends+trim.Counters.Migrations != 0 {
		t.Error("Trim policy must not escalate")
	}
	if trim.Totals.StolenGB >= none.Totals.StolenGB {
		t.Errorf("trimming did not reduce stolen memory: %v >= %v",
			trim.Totals.StolenGB, none.Totals.StolenGB)
	}

	extend := results[agent.PolicyExtend]
	if extend.Counters.Extends == 0 || extend.Totals.ExtendedGB <= 0 {
		t.Error("Extend policy never extended")
	}
	if extend.Counters.Migrations != 0 {
		t.Error("Extend policy must not migrate")
	}
	if extend.Counters.Trims == 0 {
		t.Error("Extend policy must still trim first")
	}

	migrate := results[agent.PolicyMigrate]
	if migrate.Counters.Migrations == 0 || migrate.Totals.MigratedGB <= 0 {
		t.Error("Migrate policy never migrated")
	}
	if migrate.Counters.Extends != 0 {
		t.Error("Migrate policy must not extend")
	}

	// Latency accounting: histograms populated, percentiles ordered.
	for p, dp := range results {
		if dp.AccessP50Ns() <= 0 || dp.AccessP99Ns() < dp.AccessP50Ns() || dp.AccessMaxNs() < dp.AccessP99Ns() {
			t.Errorf("%s: latency percentiles inconsistent: p50=%v p99=%v max=%v",
				p, dp.AccessP50Ns(), dp.AccessP99Ns(), dp.AccessMaxNs())
		}
		if f := dp.SoftFaultFrac(); f < 0 || f > 1 {
			t.Errorf("%s: soft-fault fraction %v", p, f)
		}
	}
}

// TestCrossShardMigrationDeterministicAcrossWorkers extends the
// byte-identity requirement to the sample-boundary exchange: with
// cross-shard migration enabled — shards coupled at every sample
// boundary — the merged Result, including every migration counter, must
// be identical whether shards tick serially or on any number of workers:
// the default (0), counts that do and do not divide the shard count, and
// one above it. The fixture's single-server clusters leave migrations no
// same-shard target, so the exchange path genuinely runs (asserted
// below).
func TestCrossShardMigrationDeterministicAcrossWorkers(t *testing.T) {
	tr, fleet := fixtures(t)
	cfg := dataPlaneConfig(t, agent.PolicyMigrate)
	cfg.CrossShardMigration = true
	cfg.Model = sharedModel(t, cfg)

	var base *Result
	for _, workers := range []int{1, 0, 2, 3, 8, fleet.NumClusters() + 1} {
		cfg.Workers = workers
		res, err := Run(tr, fleet, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("Workers=%d result differs from Workers=1:\n  base dp: %+v\n  got dp:  %+v",
				workers, base.DataPlane, res.DataPlane)
		}
	}
	if base.DataPlane.CrossShardMigrations == 0 {
		t.Fatal("exchange never re-homed a VM cross-shard: the byte-identity test is vacuous")
	}
	if base.Requested != base.Placed+base.Rejected {
		t.Errorf("accounting broke under migration: requested %d != placed %d + rejected %d",
			base.Requested, base.Placed, base.Rejected)
	}
}

// hotColdFleet engineers the escape-valve scenario: one "hot" cluster
// with a single small-memory server (a pool too small for its tenants'
// working sets) next to a "cold" cluster of large-memory servers with
// room to spare. Same-shard migration has nowhere to go; the cross-shard
// exchange can re-home hot VMs onto the cold pools.
func hotColdFleet() *cluster.Fleet {
	return cluster.NewFleet([]cluster.Config{
		{Name: "hot", Spec: cluster.ServerSpec{Name: "small", Generation: 1,
			Capacity: resources.NewVector(64, 128, 40, 4096)}, Servers: 1},
		{Name: "cold", Spec: cluster.ServerSpec{Name: "big", Generation: 4,
			Capacity: resources.NewVector(320, 4096, 100, 16384)}, Servers: 4},
	})
}

// TestCrossShardRelievesPressure compares the Migrate ladder with and
// without the cross-shard escape valve at equal pool pressure on the
// hot/cold fleet: same-shard mode can only re-land the hot cluster's
// migrations on their contended source (failed migrations), while
// cross-shard mode moves them to pools that can absorb them — so it must
// convert failures into landings and reduce the thrashing signals
// (stolen working-set memory, hard-fault volume).
func TestCrossShardRelievesPressure(t *testing.T) {
	tr, _ := fixtures(t)
	fleet := hotColdFleet()
	cfg := dataPlaneConfig(t, agent.PolicyMigrate)
	cfg.Model = sharedModel(t, cfg)

	same, err := Run(tr, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CrossShardMigration = true
	cross, err := Run(tr, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd, cd := same.DataPlane, cross.DataPlane
	if sd.Counters.Migrations == 0 {
		t.Fatal("fixture regression: the hot pool never provoked a migration")
	}
	if sd.CrossShardMigrations != 0 {
		t.Errorf("same-shard run recorded %d cross-shard migrations", sd.CrossShardMigrations)
	}
	if cd.CrossShardMigrations == 0 {
		t.Fatal("cross-shard mode never escaped the shard")
	}
	if cd.FailedMigrations >= sd.FailedMigrations+sd.SameShardMigrations {
		t.Errorf("cross-shard mode failed %d migrations vs %d same-shard landings+failures — escape valve ineffective",
			cd.FailedMigrations, sd.FailedMigrations+sd.SameShardMigrations)
	}
	if cd.Totals.StolenGB > sd.Totals.StolenGB+1e-9 {
		t.Errorf("cross-shard migration stole more working-set memory: %v > %v",
			cd.Totals.StolenGB, sd.Totals.StolenGB)
	}
	if cd.Totals.HardFaultGB > sd.Totals.HardFaultGB+1e-9 {
		t.Errorf("cross-shard migration hard-faulted more: %v > %v",
			cd.Totals.HardFaultGB, sd.Totals.HardFaultGB)
	}
}

// TestDataPlaneRace replays with maximum shard concurrency and the data
// plane enabled so `go test -race ./internal/sim/...` exercises the new
// per-shard tick path.
func TestDataPlaneRace(t *testing.T) {
	tr, fleet := fixtures(t)
	cfg := dataPlaneConfig(t, agent.PolicyMigrate)
	cfg.Workers = fleet.NumClusters()
	res, err := Run(tr, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataPlane == nil || res.DataPlane.VMTicks == 0 {
		t.Fatal("parallel data-plane run did no work")
	}
}

// TestDataPlaneDisabledByDefault pins that plain runs carry no data-plane
// result and pay no data-plane cost path.
func TestDataPlaneDisabledByDefault(t *testing.T) {
	res := runPolicy(t, scheduler.PolicyCoach)
	if res.DataPlane != nil {
		t.Error("DataPlane result must be nil when Config.DataPlane is off")
	}
}

func TestLatencyBucketRoundTrip(t *testing.T) {
	for _, ns := range []float64{1, 50, 100, 140, 2000, 150000, 1e7} {
		b := latencyBucket(ns)
		if b < 0 || b >= latencyBuckets {
			t.Fatalf("bucket %d out of range for %v ns", b, ns)
		}
		// The representative latency is the bucket's lower bound: within
		// one bucket width (2^(1/8)) of the sample and never above it —
		// except in the clamped top bucket, which absorbs every outlier.
		rep := latencyOf(b)
		if ns >= latencyBase && rep > ns {
			t.Errorf("bucket representative %v above sample %v ns", rep, ns)
		}
		if ns >= latencyBase && b < latencyBuckets-1 && rep < ns/1.10 {
			t.Errorf("bucket representative %v too far below %v ns", rep, ns)
		}
	}
	if minTick(-1, 5) != 5 || minTick(3, -1) != 3 || minTick(7, 4) != 4 || minTick(-1, -1) != -1 {
		t.Error("minTick wrong")
	}
}

// TestProactiveFleetReplay replays a small sparse-churn trace with every
// server's agent in Proactive mode, the only mode whose agents build and
// train a local predictor. The result must not depend on Workers, and the
// proactive trigger path must actually run: ProactiveTriggers is not in
// Result, so the same trace under Reactive agents has to come out
// different in the data-plane counters.
func TestProactiveFleetReplay(t *testing.T) {
	full, err := scenario.Preset("sparse-churn")
	if err != nil {
		t.Fatal(err)
	}
	sp := full.Scaled(250, 25)
	tr, err := trace.GenerateScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigForPolicy(scheduler.PolicyAggrCoach)
	cfg.TrainUpTo = tr.Horizon / 2
	cfg.DataPlane = true
	cfg.MitigationPolicy = agent.PolicyMigrate
	cfg.DataPlanePoolFrac = 0.02
	cfg.DataPlaneUnallocFrac = 0.02
	if cfg.Model, err = predict.TrainLongTerm(tr, cfg.TrainUpTo, cfg.TrainConfig()); err != nil {
		t.Fatal(err)
	}
	run := func(mode agent.Mode, workers int) *Result {
		t.Helper()
		c := cfg
		c.MitigationMode = mode
		c.Workers = workers
		res, err := Run(tr, cluster.NewFleet(cluster.DefaultClusters(2)), c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(agent.Proactive, 1)
	if parallel := run(agent.Proactive, 0); !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Proactive result differs between Workers 1 and the default:\n  w1:      %+v\n  default: %+v",
			serial.DataPlane, parallel.DataPlane)
	}
	if reactive := run(agent.Reactive, 1); serial.DataPlane.Counters == reactive.DataPlane.Counters {
		t.Errorf("Proactive and Reactive agents mitigated identically (%+v): the proactive path never fired",
			serial.DataPlane.Counters)
	}
}
