// Command coach-sim runs the cluster-scale simulation (§4.3): it replays a
// synthetic trace against a fixed fleet under one or more oversubscription
// policies and reports placed capacity and performance violations. With
// -data-plane it additionally runs the per-server memory data plane
// (memsim + oversubscription agent) during replay and reports fleet-wide
// mitigation metrics per mitigation policy (§4.4 at fleet scale).
//
// Usage:
//
//	coach-sim [-scale small|medium|full] [-preset capacity|NAME|spec.txt]
//	          [-policy None|Single|Coach|AggrCoach|all]
//	          [-percentile 95] [-windows 6] [-fleet-frac 0.55] [-workers 0]
//	          [-data-plane] [-mitigation None|Trim|Extend|Migrate|all]
//	          [-mitigation-mode Reactive|Proactive] [-dp-pool-frac 0.02]
//	          [-cross-shard] [-timings]
//
// -preset names the declarative workload scenario (internal/scenario)
// the trace is generated from: a shipped preset name (default capacity)
// or a path to a spec file, rescaled to the chosen -scale. Every replay
// applies the spec's faults: section (the chaos preset's crashes) and
// then prints its fault counters in a table of their own.
//
// -cross-shard lets completed live migrations escape their home cluster
// shard through the simulator's sample-boundary exchange (docs/DESIGN.md
// §10); results stay byte-identical for any -workers value.
//
// -timings prints the stage-timer tree after the tables: trace
// synthesis, then every replay's set-up, arrival phase, tick loop (with
// its placement, delta pass, data-plane tick, contention, exchange,
// imbalance and barrier) and judging phase, summed over the policies run.
//
// -mitigation, -mitigation-mode, -dp-pool-frac and -cross-shard
// configure the data plane and are rejected without -data-plane, like a
// -percentile outside [0, 100] or a -fleet-frac that is not positive
// (exit 2).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/experiments"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/report"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/sim"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/timing"
	"github.com/coach-oss/coach/internal/trace"
)

// options carries the parsed flags.
type options struct {
	scale, preset, policy string
	percentile            float64
	windows               int
	fleetFrac             float64
	workers               int
	dataPlane             bool
	mitigation            string
	mitigationMode        agent.Mode
	dpPoolFrac            float64
	crossShard            bool
	timings               bool
}

// dataPlaneFlags are the flags that only configure the data plane.
var dataPlaneFlags = []string{"mitigation", "mitigation-mode", "dp-pool-frac", "cross-shard"}

// parseFlags parses the command line (without the program name).
func parseFlags(args []string) (options, error) {
	o := options{mitigationMode: agent.Reactive}
	fs := flag.NewFlagSet("coach-sim", flag.ContinueOnError)
	fs.StringVar(&o.scale, "scale", "medium", "input scale: small, medium or full")
	fs.StringVar(&o.preset, "preset", "capacity", "workload scenario: a preset name ("+strings.Join(scenario.PresetNames, ", ")+") or a spec file path")
	fs.StringVar(&o.policy, "policy", "all", "None, Single, Coach, AggrCoach or all")
	fs.Float64Var(&o.percentile, "percentile", 0, "override prediction percentile (0 = policy default)")
	fs.IntVar(&o.windows, "windows", 6, "time windows per day")
	fs.Float64Var(&o.fleetFrac, "fleet-frac", 0.55, "fleet capacity as a fraction of peak demand")
	fs.IntVar(&o.workers, "workers", 0, "shard replay workers, at most min(workers, GOMAXPROCS, shards) (0 = GOMAXPROCS); results are identical for any value")
	fs.BoolVar(&o.dataPlane, "data-plane", false, "run the per-server memory data plane (memsim + agent) during replay")
	fs.StringVar(&o.mitigation, "mitigation", "all", "mitigation policy: None, Trim, Extend, Migrate or all (requires -data-plane)")
	fs.Func("mitigation-mode", "mitigation triggering: Reactive (default) or Proactive; Proactive builds and trains a per-server LSTM forecaster (requires -data-plane)", func(v string) (err error) {
		o.mitigationMode, err = agent.ParseMode(v)
		return err
	})
	fs.Float64Var(&o.dpPoolFrac, "dp-pool-frac", 0.02, "oversubscribed pool as a fraction of server memory; small values provoke the contention the mitigation ladder resolves (requires -data-plane)")
	fs.BoolVar(&o.crossShard, "cross-shard", false, "let completed live migrations land in other cluster shards via the sample-boundary exchange (requires -data-plane)")
	fs.BoolVar(&o.timings, "timings", false, "print the stage-timer tree of trace synthesis and every replay")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	// Negated comparisons also reject NaN.
	var bad error
	switch {
	case !(o.percentile >= 0 && o.percentile <= 100):
		bad = fmt.Errorf("-percentile %v outside [0, 100]", o.percentile)
	case !(o.fleetFrac > 0):
		bad = fmt.Errorf("-fleet-frac %v must be positive", o.fleetFrac)
	}
	if bad != nil {
		fmt.Fprintln(fs.Output(), bad)
		return o, bad
	}
	if !o.dataPlane {
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(dataPlaneFlags, f.Name) {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			err := fmt.Errorf("%s requires -data-plane", strings.Join(set, ", "))
			fmt.Fprintln(fs.Output(), err)
			return o, err
		}
	}
	return o, nil
}

// simConfig maps the flags onto the replay configuration for one scheduler
// policy over a trace of the given horizon, generated from spec (whose
// faults: section the replay applies). With -data-plane everything but
// the mitigation policy — the dimension run sweeps — is set here.
func simConfig(o options, p scheduler.PolicyKind, spec *scenario.Spec, horizon int) sim.Config {
	cfg := sim.ConfigForPolicy(p)
	cfg.Windows = timeseries.Windows{PerDay: o.windows}
	cfg.TrainUpTo = horizon / 2
	cfg.Workers = o.workers
	cfg.Scenario = spec
	if o.percentile > 0 {
		cfg.Percentile = o.percentile
	}
	if o.dataPlane {
		cfg.DataPlane = true
		cfg.MitigationMode = o.mitigationMode
		cfg.DataPlanePoolFrac = o.dpPoolFrac
		cfg.DataPlaneUnallocFrac = o.dpPoolFrac
		cfg.CrossShardMigration = o.crossShard
	}
	return cfg
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2) // the FlagSet has already reported it
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coach-sim:", err)
		os.Exit(1)
	}
}

// run generates the trace, replays it under every chosen policy (or
// mitigation, with -data-plane) and writes the tables to w.
func run(o options, w io.Writer) error {
	s, err := experiments.ParseScale(o.scale)
	if err != nil {
		return err
	}
	sp, err := scenario.Load(o.preset)
	if err != nil {
		return err
	}
	spec := s.ScenarioSpec(sp)
	ctx := experiments.NewContext(s, sp)
	var tm *timing.Tree
	if o.timings {
		tm = sim.NewTimings()
	}
	var tr *trace.Trace
	tm.Alloc(sim.StageTrace, func() { tr, err = ctx.Trace() })
	if err != nil {
		return err
	}
	fleet, err := ctx.CapacityFleet(o.fleetFrac)
	if err != nil {
		return err
	}

	policies, err := parsePolicies(o.policy)
	if err != nil {
		return err
	}
	if o.dataPlane && o.policy == "all" {
		// One scheduler policy per data-plane sweep; default to AggrCoach,
		// whose P50 guaranteed portions exercise the oversubscribed path.
		policies = []scheduler.PolicyKind{scheduler.PolicyAggrCoach}
	}

	t := &report.Table{
		Title: fmt.Sprintf("Cluster simulation (%s scale, %d servers, %dx%gh windows)",
			s, len(fleet.Servers), o.windows, 24/float64(o.windows)),
		Headers: []string{"policy", "requested", "placed", "placed %", "oversubscribed",
			"CPU viol %", "mem viol %", "servers used", "over-alloc mem %", "under-alloc mem %"},
	}
	addRow := func(res *sim.Result, p scheduler.PolicyKind) {
		t.AddRow(p.String(), res.Requested, res.Placed, 100*res.PlacedFrac(),
			res.Oversubscribed, 100*res.CPUViolationFrac(), 100*res.MemViolationFrac(),
			res.UsedServers, 100*res.MeanOverAllocFrac(resources.Memory),
			100*res.UnderAllocFrac(resources.Memory))
	}
	faults := &report.Table{
		Title:   fmt.Sprintf("Failure domains (%s fault schedule)", spec.Name),
		Headers: []string{"run", "crashes", "recoveries", "evicted", "replaced", "lost", "downtime h"},
	}
	addFaults := func(res *sim.Result, run string) {
		if f := res.Faults; f != nil {
			faults.AddRow(run, f.Crashes, f.Recoveries, f.EvictedVMs, f.ReplacedVMs,
				f.LostVMs, float64(f.DowntimeTicks)/12)
		}
	}
	// finish writes the tables, the fault counters if the spec scheduled
	// any, and the -timings tree.
	finish := func(tables ...*report.Table) error {
		if len(faults.Rows) > 0 {
			tables = append(tables, faults)
		}
		for _, tb := range tables {
			if err := tb.Render(w); err != nil {
				return err
			}
		}
		if tm != nil {
			fmt.Fprintf(w, "\n%s", tm)
		}
		return nil
	}

	if !o.dataPlane {
		for _, p := range policies {
			cfg := simConfig(o, p, spec, tr.Horizon)
			cfg.Timings = tm
			res, err := sim.Run(tr, fleet, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			addRow(res, p)
			addFaults(res, p.String())
		}
		return finish(t)
	}

	mits, err := parseMitigations(o.mitigation)
	if err != nil {
		return err
	}
	p := policies[0]
	cfg := simConfig(o, p, spec, tr.Horizon)
	cfg.Timings = tm
	// The mitigation policy never affects training: train the predictor
	// once and share it across the sweep.
	if p != scheduler.PolicyNone {
		tm.Alloc(sim.StageSharedTrain, func() { cfg.Model, err = predict.TrainLongTerm(tr, cfg.TrainUpTo, cfg.TrainConfig()) })
		if err != nil {
			return err
		}
	}
	title := fmt.Sprintf("Fleet memory data plane (%s scheduler, %s triggering, pool %g%% of server memory",
		p, cfg.MitigationMode, 100*o.dpPoolFrac)
	if o.crossShard {
		title += ", cross-shard migration"
	}
	dpTable := &report.Table{
		Title: title + ")",
		Headers: []string{"mitigation", "contentions", "trims", "extends", "migrations",
			"landed same/cross/failed", "trimmed GB", "extended GB", "migrated GB",
			"hard-fault GB", "soft-fault %", "stolen GB", "P50 ns", "P99 ns", "max ns"},
	}
	for i, m := range mits {
		cfg.MitigationPolicy = m
		res, err := sim.Run(tr, fleet, cfg)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", p, m, err)
		}
		if i == 0 {
			// Capacity results do not depend on the mitigation policy.
			addRow(res, p)
		}
		addFaults(res, p.String()+"/"+m.String())
		dp := res.DataPlane
		dpTable.AddRow(m.String(), dp.Counters.Contentions, dp.Counters.Trims,
			dp.Counters.Extends, dp.Counters.Migrations,
			fmt.Sprintf("%d/%d/%d", dp.SameShardMigrations, dp.CrossShardMigrations, dp.FailedMigrations),
			dp.Totals.TrimmedGB, dp.Totals.ExtendedGB, dp.Totals.MigratedGB,
			dp.Totals.HardFaultGB, 100*dp.SoftFaultFrac(), dp.Totals.StolenGB,
			dp.AccessP50Ns(), dp.AccessP99Ns(), dp.AccessMaxNs())
	}
	return finish(t, dpTable)
}

func parsePolicies(s string) ([]scheduler.PolicyKind, error) {
	if s == "all" {
		return scheduler.Policies, nil
	}
	for _, p := range scheduler.Policies {
		if p.String() == s {
			return []scheduler.PolicyKind{p}, nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q", s)
}

func parseMitigations(s string) ([]agent.Policy, error) {
	if s == "all" {
		return []agent.Policy{agent.PolicyNone, agent.PolicyTrim, agent.PolicyExtend, agent.PolicyMigrate}, nil
	}
	p, err := agent.ParsePolicy(s)
	if err != nil {
		return nil, err
	}
	return []agent.Policy{p}, nil
}
