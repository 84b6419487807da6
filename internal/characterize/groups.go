package characterize

import (
	"fmt"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/stats"
	"github.com/coach-oss/coach/internal/trace"
)

// Grouping selects the Fig. 12 similarity grouping.
type Grouping int

const (
	// BySubscription groups VMs by customer subscription.
	BySubscription Grouping = iota
	// ByConfig groups VMs by VM configuration.
	ByConfig
	// BySubscriptionConfig groups by the combination of both.
	BySubscriptionConfig
)

func (g Grouping) String() string {
	switch g {
	case BySubscription:
		return "subscription"
	case ByConfig:
		return "configuration"
	case BySubscriptionConfig:
		return "subscription+configuration"
	default:
		return "Grouping?"
	}
}

// Groupings lists the three Fig. 12 groupings.
var Groupings = []Grouping{BySubscription, ByConfig, BySubscriptionConfig}

func (g Grouping) key(vm *trace.VM) string {
	switch g {
	case BySubscription:
		return fmt.Sprintf("s%d", vm.Subscription)
	case ByConfig:
		return fmt.Sprintf("c%d", vm.Config)
	default:
		return fmt.Sprintf("s%d/c%d", vm.Subscription, vm.Config)
	}
}

// GroupResult summarizes Fig. 12 for one grouping and resource.
type GroupResult struct {
	Grouping Grouping
	Kind     resources.Kind
	// MedianPriorVMs is the median number of first-week VMs matching a
	// second-week VM's group.
	MedianPriorVMs float64
	// MedianPeakRangePct is the median (max-min) spread of the prior
	// VMs' peak utilizations, in percentage points.
	MedianPeakRangePct float64
	// Within10Pct / Within20Pct report the share of second-week VMs
	// whose own peak falls within 10 (20) percentage points of the mean
	// peak of their prior VMs — the §2.3 predictability metric.
	Within10Pct float64
	Within20Pct float64
	// Evaluated is the number of second-week VMs with at least one prior.
	Evaluated int
}

// Groups reproduces Fig. 12: for every VM allocated in the second half of
// the trace, it collects the first-half VMs of the same group and
// measures how many there are, how widely their peak utilizations ranged,
// and how predictive their average peak is.
func Groups(tr *trace.Trace, k resources.Kind) []GroupResult {
	split := tr.Horizon / 2

	// First-week peaks per group key.
	type groupStats struct {
		peaks []float64
	}
	firstWeek := make([]map[string]*groupStats, len(Groupings))
	for gi := range Groupings {
		firstWeek[gi] = make(map[string]*groupStats)
	}
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start >= split || vm.DurationSamples() < evalSamplesPerStep {
			continue
		}
		visible := vm.End
		if visible > split {
			visible = split
		}
		peak := vm.Runs.Prefix(visible - vm.Start).Max(k)
		for gi, g := range Groupings {
			key := g.key(vm)
			gs := firstWeek[gi][key]
			if gs == nil {
				gs = &groupStats{}
				firstWeek[gi][key] = gs
			}
			gs.peaks = append(gs.peaks, peak)
		}
	}

	out := make([]GroupResult, 0, len(Groupings))
	for gi, g := range Groupings {
		var counts, ranges []float64
		var within10, within20, evaluated int
		for i := range tr.VMs {
			vm := &tr.VMs[i]
			if vm.Start < split || vm.DurationSamples() < evalSamplesPerStep {
				continue
			}
			gs := firstWeek[gi][g.key(vm)]
			if gs == nil || len(gs.peaks) == 0 {
				continue
			}
			evaluated++
			counts = append(counts, float64(len(gs.peaks)))
			ranges = append(ranges, 100*(stats.Max(gs.peaks)-stats.Min(gs.peaks)))
			ownPeak := vm.Runs.Max(k)
			diff := 100 * abs(ownPeak-stats.Mean(gs.peaks))
			if diff <= 10 {
				within10++
			}
			if diff <= 20 {
				within20++
			}
		}
		res := GroupResult{Grouping: g, Kind: k, Evaluated: evaluated}
		res.MedianPriorVMs = stats.Percentile(counts, 50)
		res.MedianPeakRangePct = stats.Percentile(ranges, 50)
		if evaluated > 0 {
			res.Within10Pct = 100 * float64(within10) / float64(evaluated)
			res.Within20Pct = 100 * float64(within20) / float64(evaluated)
		}
		out = append(out, res)
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
