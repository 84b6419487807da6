package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/coach-oss/coach/internal/par"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/timeseries"
)

// GenerateScenario synthesizes a trace from a declarative workload spec;
// it is the only trace generator (the default spec is the capacity
// preset). Arrivals come from each class's renewal process modulated by
// seasonality and surges; lifetimes and working sets come from the class
// distributions; utilization series come from the archetype synthesizer
// (with the class's working-set draw setting the memory base level, and
// surge windows lifting the diurnal amplitude). The same spec always
// yields the same trace: class arrival streams derive from (Seed, class)
// and every VM derives its own rand stream from (Seed, VM ID), so VMs
// synthesize on every core and the trace is byte-identical for any
// GOMAXPROCS. See docs/DESIGN.md §11.
func GenerateScenario(spec *scenario.Spec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	archIdx, err := resolveArchetypes(spec)
	if err != nil {
		return nil, err
	}

	tr := &Trace{
		Horizon:      spec.Horizon(),
		StartWeekday: spec.StartWeekday,
		Configs:      DefaultConfigs(),
		Clusters:     spec.Clusters,
	}

	// Subscriptions are split across classes proportionally to their
	// rate fractions; each subscription carries its class's archetype
	// ("mixed" classes draw from the default weights), preserving the
	// Fig. 12 premise that same-subscription VMs behave alike.
	rng := rand.New(rand.NewSource(spec.Seed))
	tr.Subscriptions = make([]Subscription, spec.Subscriptions)
	for i := range tr.Subscriptions {
		arch := archIdx[spec.ClassOfSubscription(i)]
		if arch < 0 {
			arch = pickWeighted(rng, defaultArchetypeWeights)
		}
		tr.Subscriptions[i] = Subscription{
			ID:        i,
			Type:      pickSubscriptionType(rng),
			Archetype: arch,
		}
	}

	// Merge the per-class arrival streams in (sample, class) order; VM
	// IDs follow the merged order, so they are chronological like a
	// production snapshot's.
	type arrival struct{ t, class int }
	var evs []arrival
	for ci := range spec.Classes {
		for _, t := range spec.ClassArrivals(ci) {
			evs = append(evs, arrival{t, ci})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].class < evs[j].class
	})

	tr.VMs = make([]VM, len(evs))
	par.ForEach(0, len(evs), func(id int) {
		e := evs[id]
		util := scratch.Get().(*[resources.NumKinds]timeseries.Series)
		tr.VMs[id] = generateScenarioVM(spec, tr, id, e.class, e.t, vmRand(spec.Seed, id), util)
		scratch.Put(util)
	})
	return tr, nil
}

// resolveArchetypes maps each class's archetype name to its index in
// Archetypes (-1 for "mixed"/empty).
func resolveArchetypes(spec *scenario.Spec) ([]int, error) {
	out := make([]int, len(spec.Classes))
	for i := range spec.Classes {
		name := spec.Classes[i].Archetype
		if name == "" || name == "mixed" {
			out[i] = -1
			continue
		}
		out[i] = -1
		for j := range Archetypes {
			if Archetypes[j].Name == name {
				out[i] = j
				break
			}
		}
		if out[i] < 0 {
			var known []string
			for j := range Archetypes {
				known = append(known, Archetypes[j].Name)
			}
			return nil, fmt.Errorf("trace: class %q references unknown archetype %q (have %v)",
				spec.Classes[i].Name, name, known)
		}
	}
	return out, nil
}

// generateScenarioVM creates VM id of class ci arriving at sample start,
// its utilization synthesized into util, which keeps the samples, and
// run-encoded.
func generateScenarioVM(spec *scenario.Spec, tr *Trace, id, ci, start int, rng *rand.Rand, util *[resources.NumKinds]timeseries.Series) VM {
	c := &spec.Classes[ci]
	lo, hi := spec.SubscriptionRange(ci)
	sub := &tr.Subscriptions[lo+rng.Intn(hi-lo)]

	// Lifetime: class distribution in hours, clipped to the horizon.
	dur := int(c.Lifetime.Sample(rng) * timeseries.SamplesPerHour)
	if dur < 1 {
		dur = 1
	}
	end := start + dur
	if end > tr.Horizon {
		end = tr.Horizon
	}
	long := end-start > timeseries.SamplesPerDay

	cfgIdx := scenarioConfig(rng, c.Size, long, len(tr.Configs))
	offering := IaaS
	if rng.Float64() < 0.35 {
		offering = PaaS
	}

	home := rng.Intn(spec.Clusters)
	if len(c.Clusters) > 0 {
		home = c.Clusters[rng.Intn(len(c.Clusters))]
	}
	home = spec.HomeClusterAt(ci, start, home)

	vm := VM{
		ID:           id,
		Subscription: sub.ID,
		Config:       cfgIdx,
		Alloc:        tr.Configs[cfgIdx].Alloc,
		Start:        start,
		End:          end,
		Offering:     offering,
		Cluster:      home,
	}

	ws := c.WorkingSet.Sample(rng)
	if ws > 1 {
		ws = 1
	}
	var ampAt func(t int) float64
	if len(spec.Surges) > 0 {
		ampAt = func(t int) float64 { return spec.UtilMultAt(ci, t) }
	}
	synthesizeShaped(&vm, tr, &Archetypes[sub.Archetype], ws, ampAt, rng, util)
	if spec.UtilQuantum > 0 {
		quantizeUtil(util, spec.UtilQuantum)
	}
	vm.Runs = timeseries.NewRuns(*util)
	return vm
}

// quantizeUtil snaps every utilization sample to the nearest multiple of
// q, taken as a whole count of basis-point codes, at most 1; NewRuns then
// stores each sample as its code exactly. The synthesizer's per-sample
// noise collapses into runs of identical samples: demand changes only at
// genuine level shifts, which is both how coarse production telemetry
// looks and what lets the run-encoded utilization and the replay skip
// between changes.
func quantizeUtil(util *[resources.NumKinds]timeseries.Series, q float64) {
	codes := float64(max(timeseries.ToCode(q), 1))
	step, perStep := codes/timeseries.CodeScale, timeseries.CodeScale/codes
	for k := range util {
		s := util[k]
		for i, x := range s {
			s[i] = min(math.Round(x*perStep)*step, 1)
		}
	}
}

// scenarioConfig picks a VM configuration index (DefaultConfigs' layout:
// 4 ratio families x 7 sizes) under the class's size bias. "small"
// concentrates on the bottom of the size ladder; "large" shifts both
// the size ladder and the ratio families toward the memory-heavy end
// (the hot-class shape of the migration studies); "mixed" skews VMs
// that outlive a day larger (§2.1: larger VMs hold most resource hours)
// over a ratio mix averaging ~4.6 GB/core, aligned with the
// general-purpose server shapes (misalignment is studied separately in
// the stranding analysis, §2.2).
func scenarioConfig(rng *rand.Rand, size string, long bool, numConfigs int) int {
	var sizeW, ratioW []float64
	switch {
	case size == "small":
		sizeW, ratioW = []float64{0.35, 0.30, 0.22, 0.09, 0.03, 0.01, 0}, []float64{0.25, 0.60, 0.12, 0.03}
	case size == "large":
		sizeW, ratioW = []float64{0.02, 0.06, 0.17, 0.25, 0.23, 0.17, 0.10}, []float64{0.10, 0.45, 0.30, 0.15}
	case long:
		sizeW, ratioW = []float64{0.07, 0.15, 0.28, 0.22, 0.15, 0.09, 0.04}, []float64{0.18, 0.62, 0.15, 0.05}
	default:
		sizeW, ratioW = []float64{0.20, 0.27, 0.30, 0.13, 0.06, 0.03, 0.01}, []float64{0.18, 0.62, 0.15, 0.05}
	}
	s := pickWeighted(rng, sizeW)
	return min(pickWeighted(rng, ratioW)*7+s, numConfigs-1)
}
