package characterize

import (
	"time"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/stats"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

// UtilizationSummary captures the Fig. 6 scatter statistics over the
// long-running VM population.
type UtilizationSummary struct {
	// MeanCorrelation is the Pearson correlation between per-VM mean CPU
	// and mean memory utilization (left panel of Fig. 6).
	MeanCorrelation float64
	// RangeCorrelation correlates the P95-P5 CPU and memory ranges
	// (right panel).
	RangeCorrelation float64
	// CPUMeanBelow50Pct is the share of VMs with mean CPU utilization
	// under 50% (§2.3 reports "most VMs").
	CPUMeanBelow50Pct float64
	// CPURangeViolin / MemRangeViolin summarize the utilization ranges.
	CPURangeViolin stats.Violin
	MemRangeViolin stats.Violin
	// MemRangeBelow10Pct / MemRangeAbove50Pct report the §2.3 claims that
	// 50% of VMs have a memory range under 10% and only 10% exceed 50%.
	MemRangeBelow10Pct float64
	MemRangeAbove50Pct float64
}

// Utilization computes Fig. 6's statistics over VMs lasting more than one
// day (the paper's §2.3 focus population).
func Utilization(tr *trace.Trace) UtilizationSummary {
	var meanCPU, meanMem, rangeCPU, rangeMem []float64
	for _, vm := range tr.LongRunning() {
		meanCPU = append(meanCPU, vm.Runs.Mean(resources.CPU))
		meanMem = append(meanMem, vm.Runs.Mean(resources.Memory))
		rangeCPU = append(rangeCPU, vm.Runs.Series(resources.CPU, nil).UtilRange(5, 95))
		rangeMem = append(rangeMem, vm.Runs.Series(resources.Memory, nil).UtilRange(5, 95))
	}
	s := UtilizationSummary{
		MeanCorrelation:  stats.Pearson(meanCPU, meanMem),
		RangeCorrelation: stats.Pearson(rangeCPU, rangeMem),
		CPURangeViolin:   stats.NewViolin(rangeCPU),
		MemRangeViolin:   stats.NewViolin(rangeMem),
	}
	n := float64(len(meanCPU))
	if n == 0 {
		return s
	}
	var below50, memBelow10, memAbove50 float64
	for i := range meanCPU {
		if meanCPU[i] < 0.5 {
			below50++
		}
		if rangeMem[i] < 0.10 {
			memBelow10++
		}
		if rangeMem[i] > 0.50 {
			memAbove50++
		}
	}
	s.CPUMeanBelow50Pct = 100 * below50 / n
	s.MemRangeBelow10Pct = 100 * memBelow10 / n
	s.MemRangeAbove50Pct = 100 * memAbove50 / n
	return s
}

// PeaksValleysRow is one Fig. 8 cell set: for one weekday, the share of
// peak (or valley) VMs falling in each time window, plus the share of VMs
// with no peaks that day.
type PeaksValleysRow struct {
	Weekday time.Weekday
	// WindowPct[w] is the percentage of that day's peak (valley) VMs
	// whose peak (valley) falls in window w; a VM can appear in several.
	WindowPct []float64
	NonePct   float64
}

// PeaksValleys computes Fig. 8 for one resource with the given windows
// (paper: 6x4h) over long-running VMs.
func PeaksValleys(tr *trace.Trace, k resources.Kind, w timeseries.Windows, wantPeaks bool) []PeaksValleysRow {
	days := tr.Days()
	rows := make([]PeaksValleysRow, 0, days)
	vms, series := longRunningSeries(tr, k)
	for d := 0; d < days; d++ {
		counts := make([]float64, w.PerDay)
		var withAny, none, total float64
		for i, vm := range vms {
			// The VM must cover this full trace day.
			dayStart := d * timeseries.SamplesPerDay
			if vm.Start > dayStart || vm.End < dayStart+timeseries.SamplesPerDay {
				continue
			}
			total++
			localDay := (dayStart - vm.Start) / timeseries.SamplesPerDay
			peaks, valleys, has := series[i].PeaksValleys(localDay, w)
			if !has {
				none++
				continue
			}
			marks := peaks
			if !wantPeaks {
				marks = valleys
			}
			any := false
			for wi, m := range marks {
				if m {
					counts[wi]++
					any = true
				}
			}
			if any {
				withAny++
			}
		}
		row := PeaksValleysRow{Weekday: tr.WeekdayAt(d * timeseries.SamplesPerDay), WindowPct: make([]float64, w.PerDay)}
		if withAny > 0 {
			// Normalize against VMs with a peak/valley that day, as the
			// paper does.
			var sum float64
			for _, c := range counts {
				sum += c
			}
			for wi := range counts {
				row.WindowPct[wi] = 100 * counts[wi] / sum
			}
		}
		if total > 0 {
			row.NonePct = 100 * none / total
		}
		rows = append(rows, row)
	}
	return rows
}

// ConsistencyCDF computes Fig. 9 for one resource: for each window length,
// the CDF of the absolute difference between a window's maximum on
// consecutive days, evaluated at the given thresholds (fractions).
func ConsistencyCDF(tr *trace.Trace, k resources.Kind, configs []timeseries.Windows, thresholds []float64) map[timeseries.Windows][]stats.CDFPoint {
	out := make(map[timeseries.Windows][]stats.CDFPoint, len(configs))
	_, series := longRunningSeries(tr, k)
	for _, w := range configs {
		var diffs []float64
		for _, s := range series {
			days := s.Days()
			for d := 0; d+1 < days; d++ {
				a := s.DayWindowMax(d, w)
				b := s.DayWindowMax(d+1, w)
				for wi := range a {
					diff := a[wi] - b[wi]
					if diff < 0 {
						diff = -diff
					}
					diffs = append(diffs, diff)
				}
			}
		}
		out[w] = stats.CDF(diffs, thresholds)
	}
	return out
}

// longRunningSeries returns the trace's long-running VMs and each one's
// kind-k utilization, expanded once for the per-day readers.
func longRunningSeries(tr *trace.Trace, k resources.Kind) ([]*trace.VM, []timeseries.Series) {
	vms := tr.LongRunning()
	series := make([]timeseries.Series, len(vms))
	for i, vm := range vms {
		series[i] = vm.Runs.Series(k, nil)
	}
	return vms, series
}
