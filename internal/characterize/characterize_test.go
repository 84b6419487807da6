package characterize

import (
	"math"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

var charTrace *trace.Trace

func getTrace(t *testing.T) *trace.Trace {
	t.Helper()
	if charTrace == nil {
		sp, err := scenario.Preset("capacity")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.GenerateScenario(sp.Scaled(400, 40))
		if err != nil {
			t.Fatal(err)
		}
		charTrace = tr
	}
	return charTrace
}

func TestDurationHoursMonotone(t *testing.T) {
	rows := DurationHours(getTrace(t))
	if len(rows) != len(DurationThresholds) {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].CPUHoursPct > rows[i-1].CPUHoursPct+1e-9 {
			t.Errorf("core-hours share must decrease with threshold: %v then %v",
				rows[i-1].CPUHoursPct, rows[i].CPUHoursPct)
		}
		if rows[i].VMsPct > rows[i-1].VMsPct+1e-9 {
			t.Error("VM share must decrease with threshold")
		}
	}
}

func TestDurationHoursPaperShape(t *testing.T) {
	// Fig. 2: VMs > 1 day hold ~96% of core-hours but only ~28% of VMs.
	rows := DurationHours(getTrace(t))
	var oneDay DurationRow
	for _, r := range rows {
		if r.Threshold.Hours() == 24 {
			oneDay = r
		}
	}
	if oneDay.CPUHoursPct < 85 {
		t.Errorf(">1day VMs hold %.1f%% of core-hours, want >85%%", oneDay.CPUHoursPct)
	}
	if oneDay.VMsPct > 45 {
		t.Errorf(">1day VMs are %.1f%% of VMs, want <45%%", oneDay.VMsPct)
	}
}

func TestSizeHoursMonotone(t *testing.T) {
	tr := getTrace(t)
	rows := SizeHours(tr, resources.Memory, MemThresholds)
	for i := 1; i < len(rows); i++ {
		if rows[i].HoursPct > rows[i-1].HoursPct+1e-9 {
			t.Error("GB-hours share must decrease with size threshold")
		}
	}
	// Nearly every VM has >= 4GB (only 1-core compute-optimized VMs have
	// 2GB in the generator).
	if rows[0].VMsPct < 90 {
		t.Errorf("VMs with >= 4GB = %.1f%%, want > 90%%", rows[0].VMsPct)
	}
}

func TestMedianVMSize(t *testing.T) {
	cores, mem := MedianVMSize(getTrace(t))
	// Paper §2.1: median 4 cores, < 16GB.
	if cores < 2 || cores > 8 {
		t.Errorf("median cores = %v, want ~4", cores)
	}
	if mem < 4 || mem > 32 {
		t.Errorf("median memory = %v, want < 32", mem)
	}
}

func TestStranding(t *testing.T) {
	tr := getTrace(t)
	fleet := cluster.NewFleet(cluster.DefaultClusters(2))
	res := Stranding(tr, fleet)

	for li := range OversubLevels {
		for _, k := range resources.Kinds {
			if v := res.StrandedPct[li][k]; v < 0 || v > 100 {
				t.Fatalf("stranded pct %v for level %d kind %v", v, li, k)
			}
		}
		// Bottleneck shares per cluster must sum to ~100.
		for c := 0; c <= len(fleet.Clusters); c++ {
			var sum float64
			for _, k := range resources.Kinds {
				sum += res.BottleneckPct[li][c][k]
			}
			if math.Abs(sum-100) > 1e-6 && sum != 0 {
				t.Fatalf("bottleneck shares sum to %v", sum)
			}
		}
	}
}

func TestStrandingOversubShiftsBottleneck(t *testing.T) {
	// Fig. 5: oversubscribing CPU shifts the bottleneck away from CPU.
	tr := getTrace(t)
	fleet := cluster.NewFleet(cluster.DefaultClusters(2))
	res := Stranding(tr, fleet)
	all := len(fleet.Clusters)
	noOversubCPU := res.BottleneckPct[0][all][resources.CPU]
	cpuOnlyCPU := res.BottleneckPct[1][all][resources.CPU]
	if cpuOnlyCPU >= noOversubCPU {
		t.Errorf("CPU bottleneck share must drop under CPU oversubscription: %v -> %v",
			noOversubCPU, cpuOnlyCPU)
	}
}

func TestPackHypothetical(t *testing.T) {
	// Free resources fitting exactly 3 probe VMs leave the remainder
	// stranded, bottlenecked by CPU.
	free := HypotheticalVM.Scale(3).Add(resources.NewVector(0, 100, 5, 500))
	stranded, bottleneck := packHypothetical(free)
	if bottleneck != resources.CPU {
		t.Errorf("bottleneck = %v, want CPU", bottleneck)
	}
	if stranded[resources.CPU] != 0 {
		t.Errorf("CPU stranded = %v, want 0", stranded[resources.CPU])
	}
	if stranded[resources.Memory] != 100 {
		t.Errorf("memory stranded = %v, want 100", stranded[resources.Memory])
	}
}

func TestUtilizationSummary(t *testing.T) {
	s := Utilization(getTrace(t))
	// §2.3: most VMs average < 50% CPU; memory ranges narrow.
	if s.CPUMeanBelow50Pct < 50 {
		t.Errorf("only %.1f%% of VMs below 50%% mean CPU", s.CPUMeanBelow50Pct)
	}
	if s.CPURangeViolin.Median <= s.MemRangeViolin.Median {
		t.Errorf("CPU range median %.3f must exceed memory %.3f",
			s.CPURangeViolin.Median, s.MemRangeViolin.Median)
	}
	if s.MeanCorrelation < -1 || s.MeanCorrelation > 1 {
		t.Error("correlation out of range")
	}
}

func TestPeaksValleys(t *testing.T) {
	tr := getTrace(t)
	rows := PeaksValleys(tr, resources.CPU, timeseries.Windows{PerDay: 6}, true)
	if len(rows) != tr.Days() {
		t.Fatalf("%d rows, want %d days", len(rows), tr.Days())
	}
	for _, r := range rows {
		var sum float64
		for _, p := range r.WindowPct {
			if p < 0 || p > 100 {
				t.Fatalf("window pct %v", p)
			}
			sum += p
		}
		if sum > 0 && math.Abs(sum-100) > 1e-6 {
			t.Fatalf("window shares sum to %v", sum)
		}
		if r.NonePct < 0 || r.NonePct > 100 {
			t.Fatalf("none pct %v", r.NonePct)
		}
	}
	// Paper Fig. 8: <10% of VMs have no CPU peaks. Allow slack at small scale.
	if rows[2].NonePct > 25 {
		t.Errorf("%.1f%% of VMs with no CPU peaks, want small", rows[2].NonePct)
	}
}

func TestConsistencyCDF(t *testing.T) {
	tr := getTrace(t)
	configs := []timeseries.Windows{{PerDay: 4}, {PerDay: 1}}
	thresholds := []float64{0.05, 0.20, 0.50}
	cdf := ConsistencyCDF(tr, resources.Memory, configs, thresholds)
	for w, pts := range cdf {
		for i := 1; i < len(pts); i++ {
			if pts[i].Fraction < pts[i-1].Fraction {
				t.Fatalf("%v CDF not monotone", w)
			}
		}
		// Fig. 9: memory is very consistent day over day.
		if pts[1].Fraction < 0.8 {
			t.Errorf("%v: only %.2f of memory window maxima within 20pts day-over-day", w, pts[1].Fraction)
		}
	}
}

func TestSavingsShape(t *testing.T) {
	tr := getTrace(t)
	configs := timeseries.CommonWindowConfigs()
	rows := Savings(tr, -1, resources.CPU, configs)
	if len(rows) != tr.Days() {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		for _, p := range r.Pct {
			if p < -1e-9 || p > 100 {
				t.Fatalf("savings %v out of range", p)
			}
		}
		// Ideal (5-min multiplexing) must dominate every window config.
		ideal := r.Pct[len(configs)]
		for i := 0; i < len(configs); i++ {
			if r.Pct[i] > ideal+1e-6 {
				t.Fatalf("day %d: %v windows save %v > ideal %v", r.Day, configs[i], r.Pct[i], ideal)
			}
		}
		// More windows never save less (refinement property): 1x24h vs 24x1h.
		if r.Pct[0] > r.Pct[len(configs)-1]+1e-6 {
			t.Fatalf("day %d: 1x24h saves %v > 24x1h %v", r.Day, r.Pct[0], r.Pct[len(configs)-1])
		}
	}
}

func TestSavingsViolin(t *testing.T) {
	tr := getTrace(t)
	configs := timeseries.CommonWindowConfigs()
	violins := SavingsViolin(tr, resources.CPU, configs)
	if len(violins) != len(configs)+1 {
		t.Fatalf("%d violins", len(violins))
	}
	// Fig. 11: savings grow with window count (medians non-decreasing,
	// modulo small-sample noise — require the endpoints ordered).
	if violins[0].Median > violins[len(configs)-1].Median+1e-6 {
		t.Errorf("1x24h median %.2f exceeds 24x1h median %.2f",
			violins[0].Median, violins[len(configs)-1].Median)
	}
}

func TestGroups(t *testing.T) {
	tr := getTrace(t)
	for _, k := range []resources.Kind{resources.CPU, resources.Memory} {
		results := Groups(tr, k)
		if len(results) != 3 {
			t.Fatalf("%d groupings", len(results))
		}
		byG := map[Grouping]GroupResult{}
		for _, g := range results {
			byG[g.Grouping] = g
			if g.Within10Pct < 0 || g.Within10Pct > 100 || g.Within20Pct < g.Within10Pct {
				t.Fatalf("predictability percentages inconsistent: %+v", g)
			}
		}
		// Fig. 12: grouping by configuration yields more priors with wider
		// ranges than subscription+configuration.
		if byG[ByConfig].MedianPriorVMs < byG[BySubscriptionConfig].MedianPriorVMs {
			t.Errorf("%v: config grouping has fewer priors than sub+config", k)
		}
		if byG[ByConfig].MedianPeakRangePct < byG[BySubscriptionConfig].MedianPeakRangePct {
			t.Errorf("%v: config grouping has narrower ranges than sub+config", k)
		}
	}
}

func TestGroupingStrings(t *testing.T) {
	if BySubscription.String() != "subscription" || ByConfig.String() != "configuration" {
		t.Error("grouping strings wrong")
	}
}

func TestPercentileTradeoff(t *testing.T) {
	tr := getTrace(t)
	configs := []timeseries.Windows{{PerDay: 6}}
	rows := PercentileTradeoff(tr, resources.Memory, configs)
	byPct := map[float64]float64{}
	for _, r := range rows {
		byPct[r.Percentile] = r.MeanOversubAccessPct
		// Fig. 17a: VA accesses stay far below the worst case 100-P.
		if r.MeanOversubAccessPct > 100-r.Percentile {
			t.Errorf("P%.0f oversub access %.2f%% exceeds worst case %.0f%%",
				r.Percentile, r.MeanOversubAccessPct, 100-r.Percentile)
		}
	}
	// Lower percentile -> more oversubscribed accesses.
	if byPct[65] < byPct[95] {
		t.Errorf("P65 accesses %.3f < P95 %.3f", byPct[65], byPct[95])
	}
}

func TestOversubAccessCDF(t *testing.T) {
	tr := getTrace(t)
	cdf := OversubAccessCDF(tr, resources.Memory, timeseries.Windows{PerDay: 6}, []float64{1, 5, 20})
	for pct, pts := range cdf {
		for i := 1; i < len(pts); i++ {
			if pts[i].Fraction < pts[i-1].Fraction {
				t.Fatalf("P%.0f CDF not monotone", pct)
			}
		}
	}
	// Fig. 17b: at P95 with 4h windows almost every VM sees < 5% VA
	// accesses.
	if f := cdf[95][1].Fraction; f < 0.9 {
		t.Errorf("only %.2f of VMs below 5%% VA accesses at P95", f)
	}
}
