package experiments

import (
	"fmt"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/report"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "abl-faults",
		Title: "Ablation: failure domains — VM loss and downtime under the chaos fault schedule",
		PaperClaim: "A crashing fleet exposes the capacity/robustness trade in both " +
			"directions. With headroom, the guaranteed-only fleet runs emptier " +
			"(it rejected more up front) and refits every evicted VM, while " +
			"Coach's denser packing converts a couple of evictions into losses. " +
			"Under saturation the sign flips: Coach's per-VM reservations are " +
			"smaller, so the same servers absorb more re-admissions — fewer lost " +
			"VMs and less downtime than the guaranteed-only fleet despite " +
			"admitting more. Every refitted VM is back within one 5-minute tick",
		Run: runAblFaults,
	})
}

// faultLadder is one row of the ablation.
type faultLadder struct {
	name      string
	policy    scheduler.PolicyKind
	dataPlane bool
}

// runAblFaults replays the chaos scenario preset — one pinned
// crash/recover cycle plus seed-driven chaos across the fleet — through
// the simulator's failure-domain engine, contrasting no oversubscription
// with Coach, with and without the pressure-aware data-plane recovery
// path. The uniform four-servers-per-cluster fleet is tight enough that
// crashes matter (a crashed server's VMs strain its three siblings) but
// roomy enough that both policies admit most arrivals, so the rows
// compare recovery outcomes, not admission rates.
func runAblFaults(c *Context) ([]*report.Table, error) {
	sp, err := scenario.Preset("chaos")
	if err != nil {
		return nil, err
	}
	sub := NewContext(c.Scale)
	sub.Scenario = c.Scale.ScenarioSpec(sp)

	tr, err := sub.Trace()
	if err != nil {
		return nil, err
	}
	fleet := sub.Fleet(4)
	model, err := sub.Model(95)
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title: "Failure domains under the chaos preset (four servers per cluster)",
		Headers: []string{"ladder", "placed %", "crashes", "recoveries", "evicted",
			"replaced", "lost", "loss %", "downtime h"},
		Note: "evicted VMs are re-admitted through the recovery placement path " +
			"(replaced) or dropped when no feasible server remains (lost); downtime " +
			"attributes one 5-minute tick per re-admission and the remaining " +
			"lifetime per lost VM.",
	}
	for _, l := range []faultLadder{
		{name: "None", policy: scheduler.PolicyNone},
		{name: "Coach", policy: scheduler.PolicyCoach},
		{name: "Coach+Recovery", policy: scheduler.PolicyCoach, dataPlane: true},
	} {
		cfg := sim.ConfigForPolicy(l.policy)
		cfg.TrainUpTo = trainUpTo(tr)
		cfg.Scenario = sub.Scenario // threads the faults: section into the run
		if l.policy != scheduler.PolicyNone {
			cfg.Model = model
		}
		if l.dataPlane {
			cfg.DataPlane = true
			cfg.MitigationPolicy = agent.PolicyMigrate
			cfg.MitigationMode = agent.Reactive
		}
		res, err := sim.Run(tr, fleet, cfg)
		if err != nil {
			return nil, fmt.Errorf("abl-faults %s: %w", l.name, err)
		}
		f := res.Faults
		if f == nil || f.Crashes == 0 {
			return nil, fmt.Errorf("abl-faults %s: fault schedule never fired", l.name)
		}
		lossPct := 0.0
		if f.EvictedVMs > 0 {
			lossPct = 100 * float64(f.LostVMs) / float64(f.EvictedVMs)
		}
		t.AddRow(l.name, 100*res.PlacedFrac(), f.Crashes, f.Recoveries,
			f.EvictedVMs, f.ReplacedVMs, f.LostVMs, lossPct,
			float64(f.DowntimeTicks)/12)
	}
	return []*report.Table{t}, nil
}
