package main

import (
	"fmt"
	"time"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/serve"
	"github.com/coach-oss/coach/internal/sim"
	"github.com/coach-oss/coach/internal/trace"
)

// driver names which of the three load shapes is a workload's measured
// region. The traced pass runs all three on every workload's inputs (the
// other two at probe size), so every per-layer metric is measured on
// every workload.
type driver int

const (
	driveStorm  driver = iota // closed loop, 64 clients, through the HTTP handler
	driveReplay               // open loop, the trace's own schedule compressed
	driveSim                  // one sim.Run per repetition
)

// workload is one named set of inputs plus the driver that is timed.
// The program under test sees only the generated trace, fleet and
// schedule; nothing in internal/ can tell which workload is running.
type workload struct {
	Name string
	Why  string
	Loop string // the closed/open-loop statement for README and results.json

	preset     string
	vms, subs  int
	serversPer int // servers per cluster, ten clusters
	primary    driver

	// simConfig and serveConfig shape the two programs for this
	// workload's inputs. Neither ever sets a batching, engine or worker
	// option.
	simConfig   func() sim.Config
	serveConfig func() serve.Config
}

// All populations are 0.4x the issue's starting values: the contract's
// cap (4 + 22 x 4 runs inside 3420 s) leaves about 36 s a run including
// three set-ups, and at this size a set-up is 1-3 s and a repetition
// 2-3 s on the 2-core host, so a 20 s run holds 7-10 repetitions.
const (
	benchVMs  = 8000
	benchSubs = 160
)

// Storm and replay shape (README.md states them per workload).
const (
	stormClients  = 64
	stormRing     = 25
	stormRequests = 45000 // per repetition: about 15k admits, 150 beyond p99

	replayDays     = 3               // evaluation-period days replayed per repetition
	replayWall     = 3 * time.Second // wall time those days are compressed into
	replayInflight = 8
	replayReportH  = 6 // trace hours between /v1/report pushes per live VM
)

func stormServe() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.DataPlane = true
	cfg.MitigationPolicy = agent.PolicyTrim
	cfg.AdmitPressureFrac = 0.95
	return cfg
}

func replayServe() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.DataPlane = true
	cfg.MitigationPolicy = agent.PolicyMigrate
	cfg.CrossShardMigration = true
	cfg.AdmitPressureFrac = 0.9
	cfg.DataPlanePoolFrac = 0.02
	cfg.DataPlaneUnallocFrac = 0.02
	return cfg
}

func coachSim() sim.Config { return sim.ConfigForPolicy(scheduler.PolicyCoach) }

func trimSim() sim.Config {
	cfg := coachSim()
	cfg.DataPlane = true
	cfg.MitigationPolicy = agent.PolicyTrim
	return cfg
}

func migrateSim(p scheduler.PolicyKind) func() sim.Config {
	return func() sim.Config {
		cfg := sim.ConfigForPolicy(p)
		cfg.DataPlane = true
		cfg.MitigationPolicy = agent.PolicyMigrate
		cfg.CrossShardMigration = true
		cfg.DataPlanePoolFrac = 0.02
		cfg.DataPlaneUnallocFrac = 0.02
		return cfg
	}
}

var workloads = []workload{
	{
		Name:   "serve-storm",
		Why:    "64-client closed-loop admit/predict/release storm: serve batchers, shard locks, forest inference and what-if scoring do the work; memsim ticks, sim and fault do none",
		Loop:   fmt.Sprintf("closed loop, %d client goroutines through Service.Handler().ServeHTTP, ring of %d admitted VMs per client, %d requests per repetition then a drain", stormClients, stormRing, stormRequests),
		preset: "bursty", vms: benchVMs, subs: 200, serversPer: 60, primary: driveStorm,
		simConfig: trimSim, serveConfig: stormServe,
	},
	{
		Name:   "serve-replay",
		Why:    "open-loop chaos replay at a tenth of storm capacity: admits arrive alone beside releases, reports, ticks and crash recovery, so coalescing is bypassed and any stall shows as latency from the due time",
		Loop:   fmt.Sprintf("open loop, one generator, %d evaluation days of the chaos schedule compressed to %s per repetition (one data-plane tick per 5-minute sample, one report per live VM per %d trace hours), at most %d requests in flight, latency from the due time", replayDays, replayWall, replayReportH, replayInflight),
		preset: "chaos", vms: benchVMs, subs: benchSubs, serversPer: 24, primary: driveReplay,
		simConfig: migrateSim(scheduler.PolicyCoach), serveConfig: replayServe,
	},
	{
		Name:   "sim-fleet",
		Why:    "capacity preset (the paper's Fig. 20 mix) under Coach on 2000 servers a shard: the best-fit placement scan is half the replay, per-arrival prediction and the delta pass the rest; no data plane",
		Loop:   "one sim.Run per repetition with the model pre-trained, repeated for the run length",
		preset: "capacity", vms: benchVMs, subs: benchSubs, serversPer: 2000, primary: driveSim,
		simConfig: coachSim, serveConfig: stormServe,
	},
	{
		Name:   "sim-dataplane",
		Why:    "sparse-churn under AggrCoach, data plane with Migrate and cross-shard exchange on a 2% pool: memsim+agent tick, migration engine and exchange dominate; placement scans are short (30 servers a shard)",
		Loop:   "one sim.Run per repetition with the model pre-trained, repeated for the run length",
		preset: "sparse-churn", vms: benchVMs, subs: benchSubs, serversPer: 30, primary: driveSim,
		simConfig: migrateSim(scheduler.PolicyAggrCoach), serveConfig: replayServe,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a set-up produces. Drivers and probes read it;
// none of them regenerates or retrains.
type inputs struct {
	w      *workload
	spec   *scenario.Spec
	tr     *trace.Trace
	fleet  *cluster.Fleet
	faults *fault.Schedule
	// model is trained for simConfig's windows and percentile. Serve
	// workloads train theirs inside serve.New+Warm (through cache) and
	// only get a direct model in the traced pass, for the probes.
	model *predict.LongTerm
	cache *serve.ModelCache
	// svc is the warmed service of a serve workload's set-up.
	svc *serve.Service

	evalVMs []*trace.VM // arrivals at or after the train/serve split, id order

	genS, compileMs, trainS, setupS float64
}

func (in *inputs) trainUpTo() int { return in.tr.Horizon / 2 }

// shardSizes is the fleet's servers-per-shard shape, as fault.Compile
// wants it.
func shardSizes(f *cluster.Fleet) []int {
	shards := f.Shards()
	sizes := make([]int, len(shards))
	for i, s := range shards {
		sizes[i] = len(s)
	}
	return sizes
}

// longTermFor mirrors what sim.Run and serve.New do with their config
// before training, so a model trained here is the model they would
// train.
func longTermFor(cfg sim.Config) predict.LongTermConfig {
	lt := cfg.LongTerm
	lt.Windows = cfg.Windows
	lt.Percentile = cfg.Percentile
	return lt
}

// setup generates the trace, compiles the fault schedule, builds the
// fleet and trains the model the primary driver needs: directly for a
// sim workload, through serve.New+Warm for a serve workload. withModel
// forces the direct training too (the traced pass needs it for probes).
func setup(w *workload, seed int64, withModel bool, tb *spanBuf, parent int64) (*inputs, error) {
	start := time.Now()
	sp, err := scenario.Preset(w.preset)
	if err != nil {
		return nil, err
	}
	sp = sp.Scaled(w.vms, w.subs)
	if seed != 0 {
		sp.Seed = seed
	}
	in := &inputs{w: w, spec: sp, cache: serve.NewModelCache()}

	in.genS = tb.timed(parent, "trace.GenerateScenario", func() {
		in.tr, err = trace.GenerateScenario(sp)
	}).Seconds()
	if err != nil {
		return nil, err
	}
	in.fleet = cluster.NewFleet(cluster.DefaultClusters(w.serversPer))
	in.compileMs = 1e3 * tb.timed(parent, "fault.Compile", func() {
		in.faults, err = fault.Compile(sp.Faults, sp.Seed, shardSizes(in.fleet), in.tr.Horizon-in.trainUpTo())
	}).Seconds()
	if err != nil {
		return nil, err
	}
	for i := range in.tr.VMs {
		if in.tr.VMs[i].Start >= in.trainUpTo() {
			in.evalVMs = append(in.evalVMs, &in.tr.VMs[i])
		}
	}

	if w.primary == driveSim || withModel {
		in.trainS = tb.timed(parent, "predict.TrainLongTerm", func() {
			in.model, err = predict.TrainLongTerm(in.tr, in.trainUpTo(), longTermFor(w.simConfig()))
		}).Seconds()
		if err != nil {
			return nil, err
		}
	}
	if w.primary != driveSim {
		tb.timed(parent, "serve.New+Warm", func() { in.svc, err = in.newService() })
		if err != nil {
			return nil, err
		}
	}
	in.setupS = time.Since(start).Seconds()
	return in, nil
}

// newService builds and warms a service over the workload's trace and
// fleet. All services of one set-up share its model cache, so only the
// first one trains.
func (in *inputs) newService() (*serve.Service, error) {
	cfg := in.w.serveConfig()
	cfg.Cache = in.cache
	cfg.Faults = in.faults
	svc, err := serve.New(in.tr, in.fleet, cfg)
	if err != nil {
		return nil, err
	}
	return svc, svc.Warm()
}

// simConfig is the workload's sim config over the pre-trained model and
// the compiled schedule.
func (in *inputs) simConfig() sim.Config {
	cfg := in.w.simConfig()
	cfg.TrainUpTo = in.trainUpTo()
	cfg.Model = in.model
	cfg.Faults = in.faults
	return cfg
}
