package main

import (
	"fmt"
	"reflect"
	"time"

	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/sim"
)

// simRun is one timed sim.Run.
type simRun struct {
	wall time.Duration
	res  *sim.Result
}

// runSim replays the workload's evaluation period once under cfg.
func runSim(in *inputs, cfg sim.Config, tb *spanBuf, parent int64) (simRun, error) {
	var run simRun
	var err error
	run.wall = tb.timed(parent, "sim.Run", func() {
		run.res, err = sim.Run(in.tr, in.fleet, cfg)
	})
	return run, err
}

// checkSim is the replay's own bookkeeping identity.
func checkSim(r *sim.Result) []string {
	if r.Placed+r.Rejected != r.Requested {
		return []string{fmt.Sprintf("sim: placed %d + rejected %d != requested %d", r.Placed, r.Rejected, r.Requested)}
	}
	if r.Requested == 0 {
		return []string{"sim: no arrivals in the evaluation period"}
	}
	return nil
}

func violationFrac(r *sim.Result) float64 {
	if r.ServerTicks == 0 {
		return 0
	}
	return float64(r.CPUViolations+r.MemViolations) / float64(r.ServerTicks)
}

// simLedger is the deterministic part of a sim.Result: for one seed it
// is the same on every run and every host, so parent and change compare
// exactly.
type simLedger struct {
	Requested      int `json:"requested"`
	Placed         int `json:"placed"`
	Rejected       int `json:"rejected"`
	Oversubscribed int `json:"oversubscribed"`
	UsedServers    int `json:"used_servers"`
	ServerTicks    int `json:"server_ticks"`
	CPUViolations  int `json:"cpu_violations"`
	MemViolations  int `json:"mem_violations"`

	DPContentions        int `json:"dp_contentions"`
	DPTrims              int `json:"dp_trims"`
	DPExtends            int `json:"dp_extends"`
	DPMigrations         int `json:"dp_migrations"`
	SameShardMigrations  int `json:"same_shard_migrations"`
	CrossShardMigrations int `json:"cross_shard_migrations"`
	FailedMigrations     int `json:"failed_migrations"`

	Crashes     int `json:"crashes"`
	Recoveries  int `json:"recoveries"`
	EvictedVMs  int `json:"evicted_vms"`
	ReplacedVMs int `json:"replaced_vms"`
	LostVMs     int `json:"lost_vms"`
}

func ledgerOf(r *sim.Result) simLedger {
	l := simLedger{
		Requested: r.Requested, Placed: r.Placed, Rejected: r.Rejected,
		Oversubscribed: r.Oversubscribed, UsedServers: r.UsedServers, ServerTicks: r.ServerTicks,
		CPUViolations: r.CPUViolations, MemViolations: r.MemViolations,
	}
	if dp := r.DataPlane; dp != nil {
		l.DPContentions, l.DPTrims = dp.Counters.Contentions, dp.Counters.Trims
		l.DPExtends, l.DPMigrations = dp.Counters.Extends, dp.Counters.Migrations
		l.SameShardMigrations, l.CrossShardMigrations = dp.SameShardMigrations, dp.CrossShardMigrations
		l.FailedMigrations = dp.FailedMigrations
	}
	if f := r.Faults; f != nil {
		l.Crashes, l.Recoveries, l.EvictedVMs = f.Crashes, f.Recoveries, f.EvictedVMs
		l.ReplacedVMs, l.LostVMs = f.ReplacedVMs, f.LostVMs
	}
	return l
}

// simLayers runs the traced pass's sim variants on the workload's
// inputs and fills the sim.* metrics: the default configuration with a
// visit counter, Workers=1 (which must produce the identical Result),
// the same trace and fleet under PolicyNone, and the data plane switched
// off.
func simLayers(in *inputs, tb *spanBuf, parent int64, m map[string]float64) (simLedger, []string, error) {
	var violations []string
	cfg := in.simConfig()
	var visits int64
	counted := cfg
	counted.VisitCounter = &visits
	def, err := runSim(in, counted, tb, parent)
	if err != nil {
		return simLedger{}, nil, err
	}
	violations = append(violations, checkSim(def.res)...)
	replay := def.wall

	w1cfg := cfg
	w1cfg.Workers = 1
	w1, err := runSim(in, w1cfg, tb, parent)
	if err != nil {
		return simLedger{}, nil, err
	}
	if !reflect.DeepEqual(w1.res, def.res) {
		violations = append(violations, "sim: Workers=1 result differs from the default run")
	}

	noneCfg := sim.ConfigForPolicy(scheduler.PolicyNone)
	noneCfg.TrainUpTo = cfg.TrainUpTo
	none, err := runSim(in, noneCfg, tb, parent)
	if err != nil {
		return simLedger{}, nil, err
	}
	violations = append(violations, checkSim(none.res)...)

	dpOff := replay
	if cfg.DataPlane {
		off := cfg
		off.DataPlane, off.CrossShardMigration = false, false
		run, err := runSim(in, off, tb, parent)
		if err != nil {
			return simLedger{}, nil, err
		}
		violations = append(violations, checkSim(run.res)...)
		dpOff = run.wall
	}

	r := def.res
	m["sim.replay_s"] = replay.Seconds()
	m["sim.replay_none_s"] = none.wall.Seconds()
	m["sim.replay_dp_off_s"] = dpOff.Seconds()
	m["sim.replay_w1_s"] = w1.wall.Seconds()
	m["sim.workers_speedup"] = w1.wall.Seconds() / replay.Seconds()
	m["sim.visits"] = float64(visits)
	m["sim.server_ticks"] = float64(r.ServerTicks)
	m["sim.us_per_server_tick"] = 1e6 * replay.Seconds() / float64(max(r.ServerTicks, 1))
	m["sim.violation_frac"] = violationFrac(r)
	l := ledgerOf(r)
	m["sim.dp_contentions"] = float64(l.DPContentions)
	m["sim.dp_trims"] = float64(l.DPTrims)
	m["sim.dp_migrations"] = float64(l.DPMigrations)
	m["sim.failed_migrations"] = float64(l.FailedMigrations)
	return l, violations, nil
}
