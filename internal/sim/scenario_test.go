package sim

import (
	"reflect"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

// TestScenarioRunDeterministicAcrossWorkers is the scenario-path
// determinism contract: for every preset, replaying its trace with
// Config.Scenario set (so a faults: section applies) must produce the
// identical merged Result on 1, 2 and 8 workers.
func TestScenarioRunDeterministicAcrossWorkers(t *testing.T) {
	for _, name := range scenario.PresetNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			full, err := scenario.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			sp := full.Scaled(300, 30)
			// Pre-train one model so the worker sweep isolates replay.
			tr, err := trace.GenerateScenario(sp)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ConfigForPolicy(scheduler.PolicyCoach)
			cfg.Scenario = sp
			cfg.TrainUpTo = tr.Horizon / 2
			model, err := predict.TrainLongTerm(tr, cfg.TrainUpTo, cfg.TrainConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg.Model = model

			fleet := cluster.NewFleet(cluster.DefaultClusters(1))
			var base *Result
			for _, workers := range []int{1, 2, 8} {
				cfg.Workers = workers
				res, err := Run(tr, fleet, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Requested == 0 || res.Placed == 0 {
					t.Fatalf("workers=%d: no work done: %+v", workers, summary(res))
				}
				if base == nil {
					base = res
					continue
				}
				if !reflect.DeepEqual(base, res) {
					t.Errorf("Workers=%d result differs from Workers=1:\n  base: %+v\n  got:  %+v",
						workers, summary(base), summary(res))
				}
			}
		})
	}
}

// TestRunNilTraceRequiresScenario pins that Run needs a trace: a nil
// trace is an error whether or not Config.Scenario is set, since Run
// no longer generates a trace from the scenario.
func TestRunNilTraceRequiresScenario(t *testing.T) {
	fleet := cluster.NewFleet(cluster.DefaultClusters(1))
	cfg := ConfigForPolicy(scheduler.PolicyNone)
	if _, err := Run(nil, fleet, cfg); err == nil {
		t.Fatal("nil trace with no scenario must error")
	}
	sp, err := scenario.Preset("capacity")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sp
	if _, err := Run(nil, fleet, cfg); err == nil {
		t.Fatal("nil trace with a scenario must error")
	}
}
