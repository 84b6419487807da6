package experiments

import (
	"fmt"
	"time"

	"github.com/coach-oss/coach/internal/characterize"
	"github.com/coach-oss/coach/internal/report"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "Fig. 2: resource hours and VM count vs. VM duration",
		PaperClaim: "VMs lasting more than one day are ~28% of VMs but consume " +
			"~96% of core-hours and GB-hours",
		Run: runFig2,
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Fig. 3: resource hours and VM count vs. VM size",
		PaperClaim: "VMs with >=32GB are ~20% of VMs but consume over 60% of " +
			"GB-hours; median VM has 4 cores and <16GB",
		Run: runFig3,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Fig. 4: average stranding per resource vs. oversubscription",
		PaperClaim: "No-oversub stranding: CPU lowest (~8%), then memory (~18%), " +
			"network (~29%), SSD (~54%); oversubscribing CPU raises CPU stranding " +
			"and lowers the others; CPU+Mem lowers memory's share of bottlenecks",
		Run: runFig4,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Fig. 5: bottleneck resource per cluster",
		PaperClaim: "Without oversubscription CPU is the most common bottleneck, " +
			"then memory, then network; oversubscribing CPU shifts the bottleneck " +
			"to memory and network; clusters differ (C1 CPU-bound, C4 memory-bound)",
		Run: runFig5,
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Fig. 6: CPU vs. memory utilization correlation",
		PaperClaim: "Most VMs average <50% CPU; CPU ranges reach 60% while memory " +
			"stays within 30%; half of VMs have a memory range under 10%",
		Run: runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Fig. 7: one VM's weekly CPU pattern in 3x8h windows",
		PaperClaim: "Daily peaks recur in the same windows; the current window max " +
			"is close to the lifetime window max",
		Run: runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Fig. 8: share of VMs with peaks/valleys per 4h window",
		PaperClaim: "CPU peaks and valleys are spread across all six windows; " +
			"<10% of VMs have no CPU peaks; ~70% of VMs have memory peaks",
		Run: runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Fig. 9: peak consistency across consecutive days",
		PaperClaim: "With 6h windows, ~80% of window maxima change at most 20% " +
			"(CPU) and at most 5% (memory) day over day",
		Run: runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Fig. 10: daily savings for multiple window lengths (one cluster)",
		PaperClaim: "1x24h saves ~8% of both resources; 4x6h saves ~15% memory and " +
			"~20% CPU; 5-minute ideal saves ~18% memory and ~34% CPU",
		Run: runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Fig. 11: savings distribution across clusters per window config",
		PaperClaim: "Savings grow with window count and plateau around 6x4h; CPU " +
			"savings exceed memory savings",
		Run: runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Fig. 12: predictability of new VMs from prior VMs per grouping",
		PaperClaim: "Grouping by configuration gives many priors with huge ranges; " +
			"subscription+configuration gives the fewest priors with the smallest " +
			"ranges; memory peaks are more predictable than CPU",
		Run: runFig12,
	})
	register(Experiment{
		ID:    "fig17",
		Title: "Fig. 17: oversubscribed accesses vs. prediction percentile",
		PaperClaim: "VA accesses stay far below the worst-case (100-P) bound; finer " +
			"windows and lower percentiles increase VA accesses; with 4h windows at " +
			"P80, 99% of VMs see <5% VA accesses",
		Run: runFig17,
	})
}

func runFig2(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Share of resource hours / VMs from VMs lasting longer than threshold",
		Headers: []string{"duration >", "% core-hours", "% GB-hours", "% of VMs"},
	}
	for _, row := range characterize.DurationHours(tr) {
		t.AddRow(fmtDuration(row.Threshold), row.CPUHoursPct, row.MemHoursPct, row.VMsPct)
	}
	return []*report.Table{t}, nil
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= 24*time.Hour:
		return fmt.Sprintf("%gd", d.Hours()/24)
	case d >= time.Hour:
		return fmt.Sprintf("%gh", d.Hours())
	default:
		return fmt.Sprintf("%gm", d.Minutes())
	}
}

func runFig3(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	cpu := &report.Table{
		Title:   "Share of core-hours / VMs from VMs at least as large (cores)",
		Headers: []string{"cores >=", "% core-hours", "% of VMs"},
	}
	for _, row := range characterize.SizeHours(tr, resources.CPU, characterize.CoreThresholds) {
		cpu.AddRow(row.Threshold, row.HoursPct, row.VMsPct)
	}
	mem := &report.Table{
		Title:   "Share of GB-hours / VMs from VMs at least as large (memory)",
		Headers: []string{"GB >=", "% GB-hours", "% of VMs"},
	}
	for _, row := range characterize.SizeHours(tr, resources.Memory, characterize.MemThresholds) {
		mem.AddRow(row.Threshold, row.HoursPct, row.VMsPct)
	}
	mc, mm := characterize.MedianVMSize(tr)
	mem.Note = fmt.Sprintf("median VM: %.0f cores, %.0f GB", mc, mm)
	return []*report.Table{cpu, mem}, nil
}

func runFig4(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	res := characterize.Stranding(tr, c.Fleet(strandingServersPer(c.Scale)))
	t := &report.Table{
		Title:   "Average stranded capacity (%) per resource",
		Headers: []string{"config", "CPU", "Memory", "Network", "SSD"},
	}
	for li, level := range characterize.OversubLevels {
		s := res.StrandedPct[li]
		t.AddRow(level.String(), s[resources.CPU], s[resources.Memory], s[resources.Network], s[resources.SSD])
	}
	return []*report.Table{t}, nil
}

func strandingServersPer(s Scale) int {
	switch s {
	case ScaleSmall:
		return 2
	case ScaleMedium:
		return 4
	default:
		return 6
	}
}

func runFig5(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	fleet := c.Fleet(strandingServersPer(c.Scale))
	res := characterize.Stranding(tr, fleet)
	var tables []*report.Table
	for li, level := range characterize.OversubLevels {
		t := &report.Table{
			Title:   fmt.Sprintf("Bottleneck resource share per cluster (%% of time), %s", level),
			Headers: []string{"cluster", "CPU", "Memory", "Network", "SSD"},
		}
		for ci := 0; ci <= len(fleet.Clusters); ci++ {
			name := "ALL"
			if ci < len(fleet.Clusters) {
				name = fleet.Clusters[ci].Name
			}
			b := res.BottleneckPct[li][ci]
			t.AddRow(name, b[resources.CPU], b[resources.Memory], b[resources.Network], b[resources.SSD])
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig6(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	s := characterize.Utilization(tr)
	t := &report.Table{
		Title:   "CPU vs. memory utilization statistics (long-running VMs)",
		Headers: []string{"statistic", "value"},
	}
	t.AddRow("Pearson corr. of mean CPU vs. mean memory", s.MeanCorrelation)
	t.AddRow("Pearson corr. of CPU range vs. memory range", s.RangeCorrelation)
	t.AddRow("% VMs with mean CPU < 50%", s.CPUMeanBelow50Pct)
	t.AddRow("median CPU range (P95-P5, % of alloc)", 100*s.CPURangeViolin.Median)
	t.AddRow("P75 CPU range", 100*s.CPURangeViolin.P75)
	t.AddRow("median memory range", 100*s.MemRangeViolin.Median)
	t.AddRow("P75 memory range", 100*s.MemRangeViolin.P75)
	t.AddRow("% VMs with memory range < 10%", s.MemRangeBelow10Pct)
	t.AddRow("% VMs with memory range > 50%", s.MemRangeAbove50Pct)
	return []*report.Table{t}, nil
}

func runFig7(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	// Pick a long-running VM with a clear diurnal pattern: the VM with
	// the largest CPU utilization range among week-long VMs.
	var best *traceVM
	var buf timeseries.Series
	for _, vm := range tr.LongRunning() {
		if vm.DurationSamples() < 7*timeseries.SamplesPerDay {
			continue
		}
		buf = vm.Runs.Series(resources.CPU, buf)
		r := buf.UtilRange(5, 95)
		if best == nil || r > best.rng {
			best = &traceVM{vm: vm, rng: r}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("fig7: no week-long VM in trace")
	}
	w := timeseries.Windows{PerDay: 3}
	life := best.vm.Runs.LifetimeWindowMax(w)[resources.CPU]
	cpu := best.vm.Runs.Series(resources.CPU, nil)
	t := &report.Table{
		Title:   fmt.Sprintf("VM %d weekly CPU pattern, 3x8h windows (%% utilization)", best.vm.ID),
		Headers: []string{"day", "win 0-8h", "win 8-16h", "win 16-24h"},
	}
	days := cpu.Days()
	if days > 7 {
		days = 7
	}
	for d := 0; d < days; d++ {
		wm := cpu.DayWindowMax(d, w)
		t.AddRow(fmt.Sprintf("day %d", d), 100*wm[0], 100*wm[1], 100*wm[2])
	}
	t.AddRow("lifetime max", 100*life[0], 100*life[1], 100*life[2])
	return []*report.Table{t}, nil
}

type traceVM struct {
	vm  *trace.VM
	rng float64
}

func runFig8(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	w := timeseries.Windows{PerDay: 6}
	var tables []*report.Table
	for _, spec := range []struct {
		kind  resources.Kind
		peaks bool
		title string
	}{
		{resources.CPU, true, "CPU peaks"},
		{resources.CPU, false, "CPU valleys"},
		{resources.Memory, true, "Memory peaks"},
		{resources.Memory, false, "Memory valleys"},
	} {
		rows := characterize.PeaksValleys(tr, spec.kind, w, spec.peaks)
		t := &report.Table{
			Title: fmt.Sprintf("%s per 4h window (%% of that day's peak/valley VMs)", spec.title),
			Headers: []string{"day", "0-4h", "4-8h", "8-12h", "12-16h", "16-20h", "20-24h",
				"none %"},
		}
		for _, r := range rows {
			cells := []any{r.Weekday.String()[:3]}
			for _, p := range r.WindowPct {
				cells = append(cells, p)
			}
			cells = append(cells, r.NonePct)
			t.AddRow(cells...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig9(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	configs := []timeseries.Windows{{PerDay: 24}, {PerDay: 12}, {PerDay: 8}, {PerDay: 6}, {PerDay: 4}, {PerDay: 2}, {PerDay: 1}}
	thresholds := []float64{0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50}
	var tables []*report.Table
	for _, k := range []resources.Kind{resources.CPU, resources.Memory} {
		cdf := characterize.ConsistencyCDF(tr, k, configs, thresholds)
		t := &report.Table{
			Title:   fmt.Sprintf("%v: CDF of |day-over-day window max difference| (%% of window pairs)", k),
			Headers: []string{"window", "<=0%", "<=5%", "<=10%", "<=15%", "<=20%", "<=30%", "<=50%"},
		}
		for _, w := range configs {
			cells := []any{w.String()}
			for _, p := range cdf[w] {
				cells = append(cells, 100*p.Fraction)
			}
			t.AddRow(cells...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig10(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	configs := timeseries.CommonWindowConfigs()
	var tables []*report.Table
	for _, k := range []resources.Kind{resources.CPU, resources.Memory} {
		rows := characterize.Savings(tr, 0, k, configs)
		t := &report.Table{
			Title:   fmt.Sprintf("%% %v saved per day in cluster C1 per window config", k),
			Headers: []string{"day", "1x24h", "2x12h", "4x6h", "6x4h", "8x3h", "12x2h", "24x1h", "ideal"},
		}
		for _, r := range rows {
			cells := []any{fmt.Sprintf("day %d", r.Day)}
			for _, p := range r.Pct {
				cells = append(cells, p)
			}
			t.AddRow(cells...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig11(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	configs := timeseries.CommonWindowConfigs()
	labels := []string{"1x24h", "2x12h", "4x6h", "6x4h", "8x3h", "12x2h", "24x1h", "ideal"}
	var tables []*report.Table
	for _, k := range []resources.Kind{resources.CPU, resources.Memory} {
		violins := characterize.SavingsViolin(tr, k, configs)
		t := &report.Table{
			Title:   fmt.Sprintf("%% %v saved across clusters (violin summary)", k),
			Headers: []string{"windows", "min", "P25", "median", "P75", "max", "mean"},
		}
		for i, v := range violins {
			t.AddRow(labels[i], v.Min, v.P25, v.Median, v.P75, v.Max, v.Mean)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig12(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	var tables []*report.Table
	for _, k := range []resources.Kind{resources.CPU, resources.Memory} {
		t := &report.Table{
			Title: fmt.Sprintf("%v peak predictability per grouping", k),
			Headers: []string{"grouping", "median prior VMs", "median peak range (pts)",
				"% within 10pts", "% within 20pts", "evaluated"},
		}
		for _, g := range characterize.Groups(tr, k) {
			t.AddRow(g.Grouping.String(), g.MedianPriorVMs, g.MedianPeakRangePct,
				g.Within10Pct, g.Within20Pct, g.Evaluated)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig17(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	configs := []timeseries.Windows{{PerDay: 24}, {PerDay: 12}, {PerDay: 6}, {PerDay: 4}, {PerDay: 2}, {PerDay: 1}}
	rows := characterize.PercentileTradeoff(tr, resources.Memory, configs)
	byPct := make(map[float64]map[timeseries.Windows]float64)
	for _, r := range rows {
		if byPct[r.Percentile] == nil {
			byPct[r.Percentile] = make(map[timeseries.Windows]float64)
		}
		byPct[r.Percentile][r.Windows] = r.MeanOversubAccessPct
	}
	a := &report.Table{
		Title:   "Mean % of memory accesses to the oversubscribed portion",
		Headers: []string{"percentile", "1h", "2h", "4h", "6h", "12h", "24h", "worst"},
	}
	for _, pct := range characterize.TradeoffPercentiles {
		m := byPct[pct]
		a.AddRow(fmt.Sprintf("P%.0f", pct),
			m[timeseries.Windows{PerDay: 24}], m[timeseries.Windows{PerDay: 12}],
			m[timeseries.Windows{PerDay: 6}], m[timeseries.Windows{PerDay: 4}],
			m[timeseries.Windows{PerDay: 2}], m[timeseries.Windows{PerDay: 1}],
			100-pct)
	}

	thresholds := []float64{0, 1, 2, 5, 10, 20}
	cdf := characterize.OversubAccessCDF(tr, resources.Memory, timeseries.Windows{PerDay: 6}, thresholds)
	b := &report.Table{
		Title:   "CDF of per-VM oversubscribed access %% (4h windows)",
		Headers: []string{"percentile", "<=0%", "<=1%", "<=2%", "<=5%", "<=10%", "<=20%"},
	}
	for _, pct := range characterize.TradeoffPercentiles {
		cells := []any{fmt.Sprintf("P%.0f", pct)}
		for _, p := range cdf[pct] {
			cells = append(cells, 100*p.Fraction)
		}
		b.AddRow(cells...)
	}
	return []*report.Table{a, b}, nil
}
