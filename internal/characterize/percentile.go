package characterize

import (
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/stats"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

// PercentileTradeoffRow is one Fig. 17a point: the expected percentage of
// memory accesses served by the oversubscribed (VA) portion when the
// guaranteed portion is sized at the given prediction percentile, for one
// window length.
type PercentileTradeoffRow struct {
	Percentile float64
	Windows    timeseries.Windows
	// MeanOversubAccessPct is averaged across VMs.
	MeanOversubAccessPct float64
}

// TradeoffPercentiles are Fig. 17's x-axis values.
var TradeoffPercentiles = []float64{65, 70, 75, 80, 85, 90, 95}

// oversubAccessPct computes, for one VM, the expected percentage of
// accesses landing in the oversubscribed portion when the guaranteed (PA)
// portion is the bucketed P-percentile of each window's utilization,
// assuming uniform access over utilized memory (§3.3, Fig. 17).
func oversubAccessPct(vm *trace.VM, k resources.Kind, w timeseries.Windows, pct float64) float64 {
	s := vm.Runs.Series(k, nil)
	pa := s.WindowPercentile(w, pct)
	// The PA allocation is static: the max across windows (formula 1),
	// rounded up to a 5% bucket.
	var paFrac float64
	for _, v := range pa {
		if b := stats.BucketUp(v, timeseries.PeakBucket); b > paFrac {
			paFrac = b
		}
	}
	if paFrac > 1 {
		paFrac = 1
	}
	var sum float64
	for _, u := range s {
		if u > paFrac && u > 0 {
			sum += (u - paFrac) / u
		}
	}
	if len(s) == 0 {
		return 0
	}
	return 100 * sum / float64(len(s))
}

// PercentileTradeoff computes Fig. 17a over long-running VMs.
func PercentileTradeoff(tr *trace.Trace, k resources.Kind, configs []timeseries.Windows) []PercentileTradeoffRow {
	vms := tr.LongRunning()
	var rows []PercentileTradeoffRow
	for _, pct := range TradeoffPercentiles {
		for _, w := range configs {
			var sum float64
			var n int
			for _, vm := range vms {
				sum += oversubAccessPct(vm, k, w, pct)
				n++
			}
			row := PercentileTradeoffRow{Percentile: pct, Windows: w}
			if n > 0 {
				row.MeanOversubAccessPct = sum / float64(n)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// OversubAccessCDF computes Fig. 17b: for each percentile, the CDF across
// VMs of the per-VM oversubscribed access percentage, using the given
// window config (paper: 4-hour windows) and thresholds in percent.
func OversubAccessCDF(tr *trace.Trace, k resources.Kind, w timeseries.Windows, thresholds []float64) map[float64][]stats.CDFPoint {
	vms := tr.LongRunning()
	out := make(map[float64][]stats.CDFPoint, len(TradeoffPercentiles))
	for _, pct := range TradeoffPercentiles {
		vals := make([]float64, 0, len(vms))
		for _, vm := range vms {
			vals = append(vals, oversubAccessPct(vm, k, w, pct))
		}
		out[pct] = stats.CDF(vals, thresholds)
	}
	return out
}
