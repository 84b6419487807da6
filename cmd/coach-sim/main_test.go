package main

import (
	"testing"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/sim"
	"github.com/coach-oss/coach/internal/timeseries"
)

// TestFlagsToConfig pins the flag → sim.Config mapping: each row names the
// fields its flags must move off sim.ConfigForPolicy (with the command's
// own defaults: 6 windows, training on the first half of the horizon), and
// everything else must stay put.
func TestFlagsToConfig(t *testing.T) {
	const horizon = 4032
	for _, tc := range []struct {
		name   string
		args   []string
		policy scheduler.PolicyKind
		want   func(*sim.Config)
	}{
		{"defaults", nil, scheduler.PolicyCoach, func(*sim.Config) {}},
		{"workers", []string{"-workers", "4"}, scheduler.PolicyCoach,
			func(c *sim.Config) { c.Workers = 4 }},
		{"windows and percentile override", []string{"-windows", "4", "-percentile", "90"}, scheduler.PolicyAggrCoach,
			func(c *sim.Config) {
				c.Windows = timeseries.Windows{PerDay: 4}
				c.Percentile = 90
			}},
		{"data plane defaults", []string{"-data-plane"}, scheduler.PolicyAggrCoach,
			func(c *sim.Config) {
				c.DataPlane, c.MitigationMode = true, agent.Reactive
				c.DataPlanePoolFrac, c.DataPlaneUnallocFrac = 0.02, 0.02
			}},
		{"data plane with migration", []string{"-data-plane", "-mitigation-mode", "proactive", "-dp-pool-frac", "0.1", "-cross-shard"},
			scheduler.PolicyAggrCoach,
			func(c *sim.Config) {
				c.DataPlane, c.MitigationMode = true, agent.Proactive
				c.DataPlanePoolFrac, c.DataPlaneUnallocFrac = 0.1, 0.1
				c.CrossShardMigration = true
			}},
	} {
		o, err := parseFlags(tc.args)
		if err != nil {
			t.Errorf("%s: parseFlags: %v", tc.name, err)
			continue
		}
		want := sim.ConfigForPolicy(tc.policy)
		want.Windows = timeseries.Windows{PerDay: 6}
		want.TrainUpTo = horizon / 2
		tc.want(&want)
		// MitigationPolicy is the dimension main sweeps, never a flag's.
		if got := simConfig(o, tc.policy, horizon); got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}
}

// TestFlagsOutsideConfig covers the flags main consumes directly.
func TestFlagsOutsideConfig(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.scale != "medium" || o.preset != "" || o.policy != "all" || o.fleetFrac != 0.55 || o.mitigation != "all" {
		t.Errorf("defaults: %+v", o)
	}
	o, err = parseFlags([]string{"-scale", "small", "-preset", "sparse-churn", "-policy", "Coach", "-fleet-frac", "0.7", "-data-plane", "-mitigation", "Migrate"})
	if err != nil {
		t.Fatal(err)
	}
	if o.scale != "small" || o.preset != "sparse-churn" || o.policy != "Coach" || o.fleetFrac != 0.7 || o.mitigation != "Migrate" {
		t.Errorf("explicit: %+v", o)
	}
	if got, err := parseMitigations(o.mitigation); err != nil || len(got) != 1 || got[0] != agent.PolicyMigrate {
		t.Errorf("parseMitigations(Migrate) = %v, %v", got, err)
	}
	if got, err := parseMitigations("all"); err != nil || len(got) != 4 {
		t.Errorf("parseMitigations(all) = %v, %v", got, err)
	}
	if got, err := parsePolicies("all"); err != nil || len(got) != len(scheduler.Policies) {
		t.Errorf("parsePolicies(all) = %v, %v", got, err)
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-data-plane", "-mitigation-mode", "Psychic"},
		{"-workers", "many"},
		// Training always uses every core: the forest is identical for
		// any count, so there is no knob.
		{"-train-workers", "2"},
		{"-no-such-flag"},
		// Out-of-range values main would otherwise replace with the
		// policy default or reject late with a misleading error.
		{"-percentile", "-5"},
		{"-percentile", "101"},
		{"-fleet-frac", "-1"},
		{"-fleet-frac", "0"},
		// Data-plane flags set without -data-plane, even to their
		// defaults or to values main would reject later.
		{"-mitigation", "Bogus"},
		{"-mitigation", "all"},
		{"-mitigation-mode", "Proactive"},
		{"-dp-pool-frac", "0.5"},
		{"-cross-shard"},
		{"-cross-shard=false", "-policy", "Coach"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v: parsed without error", args)
		}
	}
	if _, err := parsePolicies("Greedy"); err == nil {
		t.Error("unknown policy must fail")
	}
	if _, err := parseMitigations("Evict"); err == nil {
		t.Error("unknown mitigation must fail")
	}
}
