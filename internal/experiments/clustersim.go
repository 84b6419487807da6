package experiments

import (
	"fmt"

	"github.com/coach-oss/coach/internal/report"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "fig19",
		Title: "Fig. 19: long-term prediction effectiveness by percentile",
		PaperClaim: "Average over-allocation error is 23-30% for CPU and 19-24% for " +
			"memory, shrinking as the percentile drops; under-allocations are rare " +
			"(memory 1-2%, CPU 3-8%) and grow as the percentile drops",
		Run: runFig19,
	})
	register(Experiment{
		ID:    "fig20",
		Title: "Fig. 20: packing capacity and performance violations per policy",
		PaperClaim: "Single hosts ~22% more VMs than None; Coach adds ~16% over " +
			"Single; AggrCoach ~9% over Coach; violations stay small and ordered " +
			"None < Single < Coach < AggrCoach; Coach also needs ~44% fewer servers",
		Run: runFig20,
	})
}

func runFig19(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	fleet, err := c.CapacityFleet(2.0) // ample fleet: measure prediction, not packing
	if err != nil {
		return nil, err
	}
	over := &report.Table{
		Title:   "Average over-allocation error (% of allocation)",
		Headers: []string{"percentile", "CPU", "Memory"},
	}
	under := &report.Table{
		Title:   "VMs under-allocated (%)",
		Headers: []string{"percentile", "CPU", "Memory"},
	}
	for _, pct := range []float64{95, 90, 85} {
		cfg := sim.ConfigForPolicy(scheduler.PolicyCoach)
		cfg.Percentile = pct
		if err := c.shareModel(&cfg); err != nil {
			return nil, err
		}
		res, err := sim.Run(tr, fleet, cfg)
		if err != nil {
			return nil, err
		}
		over.AddRow(fmt.Sprintf("P%.0f", pct),
			100*res.MeanOverAllocFrac(resources.CPU),
			100*res.MeanOverAllocFrac(resources.Memory))
		under.AddRow(fmt.Sprintf("P%.0f", pct),
			100*res.UnderAllocFrac(resources.CPU),
			100*res.UnderAllocFrac(resources.Memory))
	}
	return []*report.Table{over, under}, nil
}

func runFig20(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	// Fixed, under-provisioned fleet: the capacity comparison packs VMs
	// until the fleet rejects.
	tight, err := c.CapacityFleet(0.55)
	if err != nil {
		return nil, err
	}
	results := make(map[scheduler.PolicyKind]*sim.Result, len(scheduler.Policies))
	for _, p := range scheduler.Policies {
		cfg := sim.ConfigForPolicy(p)
		if err := c.shareModel(&cfg); err != nil {
			return nil, err
		}
		res, err := sim.Run(tr, tight, cfg)
		if err != nil {
			return nil, err
		}
		results[p] = res
	}

	capTable := &report.Table{
		Title:   "Additional sellable capacity vs. None (fixed fleet)",
		Headers: []string{"policy", "VMs placed", "placed %", "+capacity vs None %", "+capacity vs prev %"},
	}
	nonePlaced := results[scheduler.PolicyNone].Placed
	prev := nonePlaced
	for _, p := range scheduler.Policies {
		r := results[p]
		vsNone, vsPrev := 0.0, 0.0
		if nonePlaced > 0 {
			vsNone = 100 * float64(r.Placed-nonePlaced) / float64(nonePlaced)
		}
		if prev > 0 {
			vsPrev = 100 * float64(r.Placed-prev) / float64(prev)
		}
		capTable.AddRow(p.String(), r.Placed, 100*r.PlacedFrac(), vsNone, vsPrev)
		prev = r.Placed
	}

	violTable := &report.Table{
		Title:   "Performance violations (% of used server ticks)",
		Headers: []string{"policy", "CPU", "Memory"},
	}
	for _, p := range scheduler.Policies {
		r := results[p]
		violTable.AddRow(p.String(), 100*r.CPUViolationFrac(), 100*r.MemViolationFrac())
	}

	// Server consolidation: how many servers each policy needs for the
	// same VM population, on an ample fleet.
	ample, err := c.CapacityFleet(2.0)
	if err != nil {
		return nil, err
	}
	consTable := &report.Table{
		Title:   "Servers in use for the full VM set (ample fleet)",
		Headers: []string{"policy", "servers used", "reduction vs None %"},
	}
	var noneServers int
	for _, p := range []scheduler.PolicyKind{scheduler.PolicyNone, scheduler.PolicyCoach} {
		cfg := sim.ConfigForPolicy(p)
		if err := c.shareModel(&cfg); err != nil {
			return nil, err
		}
		res, err := sim.Run(tr, ample, cfg)
		if err != nil {
			return nil, err
		}
		if p == scheduler.PolicyNone {
			noneServers = res.UsedServers
		}
		red := 0.0
		if noneServers > 0 {
			red = 100 * float64(noneServers-res.UsedServers) / float64(noneServers)
		}
		consTable.AddRow(p.String(), res.UsedServers, red)
	}
	return []*report.Table{capTable, violTable, consTable}, nil
}
