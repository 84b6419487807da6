// Command coach-sim runs the cluster-scale simulation (§4.3): it replays a
// synthetic trace against a fixed fleet under one or more oversubscription
// policies and reports placed capacity and performance violations. With
// -data-plane it additionally runs the per-server memory data plane
// (memsim + oversubscription agent) during replay and reports fleet-wide
// mitigation metrics per mitigation policy (§4.4 at fleet scale).
//
// Usage:
//
//	coach-sim [-scale small|medium|full] [-preset NAME|spec.txt]
//	          [-policy None|Single|Coach|AggrCoach|all]
//	          [-percentile 95] [-windows 6] [-fleet-frac 0.55] [-workers 0]
//	          [-data-plane] [-mitigation None|Trim|Extend|Migrate|all]
//	          [-mitigation-mode Reactive|Proactive] [-dp-pool-frac 0.02]
//	          [-cross-shard]
//
// -preset replays a declarative workload scenario (internal/scenario)
// instead of the calibrated GenConfig trace: a shipped preset name or a
// path to a spec file, rescaled to the chosen -scale.
//
// -cross-shard lets completed live migrations escape their home cluster
// shard through the simulator's sample-boundary exchange (docs/DESIGN.md
// §10); results stay byte-identical for any -workers value.
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
}

// dataPlaneFlags are the flags that only configure the data plane.
var dataPlaneFlags = []string{"mitigation", "mitigation-mode", "dp-pool-frac", "cross-shard"}

// parseFlags parses the command line (without the program name).
func parseFlags(args []string) (options, error) {
	o := options{mitigationMode: agent.Reactive}
	fs := flag.NewFlagSet("coach-sim", flag.ContinueOnError)
	fs.StringVar(&o.scale, "scale", "medium", "input scale: small, medium or full")
	fs.StringVar(&o.preset, "preset", "", "workload scenario: a preset name ("+strings.Join(scenario.PresetNames, ", ")+") or a spec file path; empty uses the calibrated GenConfig trace")
	fs.StringVar(&o.policy, "policy", "all", "None, Single, Coach, AggrCoach or all")
	fs.Float64Var(&o.percentile, "percentile", 0, "override prediction percentile (0 = policy default)")
	fs.IntVar(&o.windows, "windows", 6, "time windows per day")
	fs.Float64Var(&o.fleetFrac, "fleet-frac", 0.55, "fleet capacity as a fraction of peak demand")
	fs.IntVar(&o.workers, "workers", 0, "shard replay workers (0 = GOMAXPROCS); results are identical for any value")
	fs.BoolVar(&o.dataPlane, "data-plane", false, "run the per-server memory data plane (memsim + agent) during replay")
	fs.StringVar(&o.mitigation, "mitigation", "all", "mitigation policy: None, Trim, Extend, Migrate or all (requires -data-plane)")
	fs.Func("mitigation-mode", "mitigation triggering: Reactive (default) or Proactive; Proactive builds and trains a per-server LSTM forecaster (requires -data-plane)", func(v string) (err error) {
		o.mitigationMode, err = agent.ParseMode(v)
		return err
	})
	fs.Float64Var(&o.dpPoolFrac, "dp-pool-frac", 0.02, "oversubscribed pool as a fraction of server memory; small values provoke the contention the mitigation ladder resolves (requires -data-plane)")
	fs.BoolVar(&o.crossShard, "cross-shard", false, "let completed live migrations land in other cluster shards via the sample-boundary exchange (requires -data-plane)")
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
// policy over a trace of the given horizon. With -data-plane everything
// but the mitigation policy — the dimension main sweeps — is set here.
func simConfig(o options, p scheduler.PolicyKind, horizon int) sim.Config {
	cfg := sim.ConfigForPolicy(p)
	cfg.Windows = timeseries.Windows{PerDay: o.windows}
	cfg.TrainUpTo = horizon / 2
	cfg.Workers = o.workers
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
	s, err := experiments.ParseScale(o.scale)
	if err != nil {
		fatal(err)
	}
	ctx := experiments.NewContext(s)
	if o.preset != "" {
		sp, err := scenario.Load(o.preset)
		if err != nil {
			fatal(err)
		}
		ctx.Scenario = s.ScenarioSpec(sp)
	}
	tr, err := ctx.Trace()
	if err != nil {
		fatal(err)
	}
	fleet, err := ctx.CapacityFleet(o.fleetFrac)
	if err != nil {
		fatal(err)
	}

	policies, err := parsePolicies(o.policy)
	if err != nil {
		fatal(err)
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

	if !o.dataPlane {
		for _, p := range policies {
			res, err := sim.Run(tr, fleet, simConfig(o, p, tr.Horizon))
			if err != nil {
				fatal(fmt.Errorf("%s: %w", p, err))
			}
			addRow(res, p)
		}
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	mits, err := parseMitigations(o.mitigation)
	if err != nil {
		fatal(err)
	}
	p := policies[0]
	cfg := simConfig(o, p, tr.Horizon)
	// The mitigation policy never affects training: train the predictor
	// once and share it across the sweep.
	if p != scheduler.PolicyNone {
		model, err := predict.TrainLongTerm(tr, cfg.TrainUpTo, cfg.TrainConfig())
		if err != nil {
			fatal(err)
		}
		cfg.Model = model
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
			fatal(fmt.Errorf("%s/%s: %w", p, m, err))
		}
		if i == 0 {
			// Capacity results do not depend on the mitigation policy.
			addRow(res, p)
		}
		dp := res.DataPlane
		dpTable.AddRow(m.String(), dp.Counters.Contentions, dp.Counters.Trims,
			dp.Counters.Extends, dp.Counters.Migrations,
			fmt.Sprintf("%d/%d/%d", dp.SameShardMigrations, dp.CrossShardMigrations, dp.FailedMigrations),
			dp.Totals.TrimmedGB, dp.Totals.ExtendedGB, dp.Totals.MigratedGB,
			dp.Totals.HardFaultGB, 100*dp.SoftFaultFrac(), dp.Totals.StolenGB,
			dp.AccessP50Ns(), dp.AccessP99Ns(), dp.AccessMaxNs())
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println()
	if err := dpTable.Render(os.Stdout); err != nil {
		fatal(err)
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coach-sim:", err)
	os.Exit(1)
}
