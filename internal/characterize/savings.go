package characterize

import (
	"math"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/stats"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

// SavingsRow is one Fig. 10 data point: for one trace day, the percentage
// of allocated resources saved by packing with per-window maxima instead
// of the lifetime maximum. Ideal multiplexes at 5-minute granularity.
type SavingsRow struct {
	Day int
	// Pct[w] is the savings for window config index w; the final entry
	// is Ideal.
	Pct []float64
}

// dailySavings computes, for the VMs of one cluster (or all when
// cluster < 0), the resource-weighted savings fraction for resource k on
// day d: sum over VMs of alloc * mean-over-windows(lifetimeMax - windowMax)
// divided by the summed allocation of VMs live that day. series[i] is
// vms[i]'s kind-k utilization.
func dailySavings(vms []*trace.VM, series []timeseries.Series, k resources.Kind, d int, w timeseries.Windows) float64 {
	var saved, alloc float64
	dayStart := d * timeseries.SamplesPerDay
	for i, vm := range vms {
		if vm.Start > dayStart || vm.End < dayStart+timeseries.SamplesPerDay {
			continue
		}
		localDay := (dayStart - vm.Start) / timeseries.SamplesPerDay
		lifetimeMax := series[i].Max()
		sv := series[i].WindowSavings(localDay, w, lifetimeMax)
		saved += vm.Alloc[k] * stats.Mean(sv)
		alloc += vm.Alloc[k]
	}
	if alloc == 0 {
		return 0
	}
	return 100 * saved / alloc
}

// idealSavings is dailySavings at 5-minute multiplexing: the mean gap
// between lifetime max and each 5-minute sample.
func idealSavings(vms []*trace.VM, series []timeseries.Series, k resources.Kind, d int) float64 {
	var saved, alloc float64
	dayStart := d * timeseries.SamplesPerDay
	for i, vm := range vms {
		if vm.Start > dayStart || vm.End < dayStart+timeseries.SamplesPerDay {
			continue
		}
		day := series[i][dayStart-vm.Start : dayStart-vm.Start+timeseries.SamplesPerDay]
		lifetimeMax := series[i].Max()
		var sum float64
		for _, u := range day {
			if s := lifetimeMax - u; s > 0 {
				sum += s
			}
		}
		saved += vm.Alloc[k] * sum / float64(len(day))
		alloc += vm.Alloc[k]
	}
	if alloc == 0 {
		return 0
	}
	return 100 * saved / alloc
}

// Savings computes Fig. 10 for one cluster (cluster < 0 means the whole
// trace): per day, the savings percentage for each window config plus
// Ideal as the last column.
func Savings(tr *trace.Trace, clusterIdx int, k resources.Kind, configs []timeseries.Windows) []SavingsRow {
	vms := tr.LongRunning()
	if clusterIdx >= 0 {
		filtered := vms[:0]
		for _, vm := range vms {
			if vm.Cluster == clusterIdx {
				filtered = append(filtered, vm)
			}
		}
		vms = filtered
	}
	series := make([]timeseries.Series, len(vms))
	for i, vm := range vms {
		series[i] = vm.Runs.Series(k, nil)
	}
	days := tr.Days()
	rows := make([]SavingsRow, 0, days)
	for d := 0; d < days; d++ {
		row := SavingsRow{Day: d, Pct: make([]float64, len(configs)+1)}
		for wi, w := range configs {
			row.Pct[wi] = dailySavings(vms, series, k, d, w)
		}
		row.Pct[len(configs)] = idealSavings(vms, series, k, d)
		rows = append(rows, row)
	}
	return rows
}

// SavingsViolin computes Fig. 11: for each window config (plus Ideal as
// the final entry), the distribution of per-cluster savings for resource
// k, summarized as a violin. Savings per cluster average over days.
func SavingsViolin(tr *trace.Trace, k resources.Kind, configs []timeseries.Windows) []stats.Violin {
	out := make([]stats.Violin, len(configs)+1)
	perCluster := make([][]float64, len(configs)+1)
	for c := 0; c < tr.Clusters; c++ {
		rows := Savings(tr, c, k, configs)
		if len(rows) == 0 {
			continue
		}
		for col := 0; col <= len(configs); col++ {
			var sum float64
			var n int
			for _, r := range rows {
				if !math.IsNaN(r.Pct[col]) {
					sum += r.Pct[col]
					n++
				}
			}
			if n > 0 {
				perCluster[col] = append(perCluster[col], sum/float64(n))
			}
		}
	}
	for col := range perCluster {
		out[col] = stats.NewViolin(perCluster[col])
	}
	return out
}
