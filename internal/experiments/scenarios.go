package experiments

import (
	"github.com/coach-oss/coach/internal/report"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "abl-scenarios",
		Title: "Ablation: Coach vs. None across the workload scenario presets",
		PaperClaim: "Coach's capacity win holds beyond the calibrated baseline mix: " +
			"across skewed, bursty, strongly diurnal, surge-hit and high-churn " +
			"fleets it packs more VMs into the same servers (the robustness " +
			"argument behind §4.3's sensitivity discussion)",
		Run: runAblScenarios,
	})
}

// runAblScenarios replays every shipped scenario preset through the
// full pipeline — scenario -> trace -> trained predictor -> sharded
// simulator — on a fleet sized to 55% of that preset's own peak demand,
// and contrasts the Coach policy with no oversubscription. Each preset
// gets a fresh sub-context so traces, fleets and models never leak
// between scenarios.
func runAblScenarios(c *Context) ([]*report.Table, error) {
	t := &report.Table{
		Title: "Coach vs. None across scenario presets (fleet at 55% of peak demand)",
		Headers: []string{"preset", "VMs", "None placed %", "Coach placed %",
			"gain pts", "CPU viol %", "mem viol %", "under-alloc mem %"},
	}
	for _, name := range scenario.PresetNames {
		sp, err := scenario.Preset(name)
		if err != nil {
			return nil, err
		}
		sub := NewContext(c.Scale, sp)

		tr, err := sub.Trace()
		if err != nil {
			return nil, err
		}
		fleet, err := sub.CapacityFleet(0.55)
		if err != nil {
			return nil, err
		}
		model, err := sub.Model(95)
		if err != nil {
			return nil, err
		}

		none := sim.ConfigForPolicy(scheduler.PolicyNone)
		none.TrainUpTo = trainUpTo(tr)
		noneRes, err := sim.Run(tr, fleet, none)
		if err != nil {
			return nil, err
		}

		coach := sim.ConfigForPolicy(scheduler.PolicyCoach)
		coach.TrainUpTo = trainUpTo(tr)
		coach.Model = model
		coachRes, err := sim.Run(tr, fleet, coach)
		if err != nil {
			return nil, err
		}

		t.AddRow(name, len(tr.VMs),
			100*noneRes.PlacedFrac(), 100*coachRes.PlacedFrac(),
			100*(coachRes.PlacedFrac()-noneRes.PlacedFrac()),
			100*coachRes.CPUViolationFrac(), 100*coachRes.MemViolationFrac(),
			100*coachRes.UnderAllocFrac(resources.Memory))
	}
	return []*report.Table{t}, nil
}
