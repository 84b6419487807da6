// Package scenario defines declarative workload specifications: named
// client classes with rate fractions, stochastic arrival processes,
// per-class lifetime and working-set distributions, diurnal and weekly
// seasonality, and correlated surge events. One Spec drives all three
// traffic consumers in this repo — synthetic trace generation
// (trace.GenerateScenario), the sharded simulator (sim.Config.Scenario)
// and cmd/coach-loadgen against a live coachd — so offline replay and
// online serving are exercised by the same scenario, deterministically
// from a seed. See docs/DESIGN.md §11.
//
// The package is intentionally free of trace/sim dependencies: it holds
// the spec schema, its text form (Parse/Format), the stochastic machinery
// (arrival processes, distributions, seasonality) and the preset library.
// Consumers interpret the spec.
package scenario

import (
	"fmt"
	"math"
	"time"

	"github.com/coach-oss/coach/internal/timeseries"
)

// Spec is one complete workload scenario. The zero value is not valid;
// build specs from a preset (Preset), the text form (Parse/Load) or a
// literal, and check Validate before use.
type Spec struct {
	// Name identifies the scenario in tables and logs.
	Name string
	// Seed drives every stochastic choice. The same Spec (including
	// Seed) always produces the same arrivals, lifetimes and traces.
	Seed int64
	// Days is the scenario horizon in days.
	Days int
	// VMs is the target VM population: expected total arrivals across
	// all classes over the horizon (the realized count varies slightly
	// with the arrival processes).
	VMs int
	// Subscriptions is the number of customer subscriptions, split
	// across classes proportionally to their rate fractions.
	Subscriptions int
	// Clusters is the number of home clusters.
	Clusters int
	// StartWeekday is the weekday of sample 0.
	StartWeekday time.Weekday
	// Seasonality modulates every class's arrival rate by hour of day
	// and day of week.
	Seasonality Seasonality
	// Classes are the named client classes; Fraction must sum to 1.
	Classes []Class
	// Surges are correlated rate/utilization events layered on top of
	// seasonality (regional failover, launch-day stampede, black friday).
	Surges []Surge
	// Faults are injected failures (server crashes, chaos windows, train
	// failures, request latency, handoff crash points). Unlike surges
	// they do not shape the generated trace: internal/fault compiles them
	// into a deterministic schedule that the simulator and a live coachd
	// replay identically.
	Faults []Fault
	// UtilQuantum, when non-zero, snaps every generated utilization
	// sample to the nearest multiple of this fraction (e.g. 0.1 = 10%
	// steps). Quantization turns the generator's continuous per-sample
	// noise into piecewise-constant series whose demand only moves at
	// genuine level shifts — the sparse-churn preset uses it to model
	// telemetry resolution and to give event-driven replay cores change
	// points to exploit. 0 keeps full-resolution samples.
	UtilQuantum float64
}

// Class is one named client population.
type Class struct {
	// Name identifies the class (unique within the spec).
	Name string
	// Fraction is the class's share of total arrivals, in (0,1].
	Fraction float64
	// Archetype names the behavioural template (trace.Archetypes) that
	// shapes this class's utilization series; "mixed" (or empty) draws
	// an archetype per subscription from a default mix.
	Archetype string
	// Size biases the VM configuration ladder: "small", "large" or
	// "mixed" (empty = mixed).
	Size string
	// Clusters optionally pins the class to specific home clusters;
	// empty means uniform across all clusters.
	Clusters []int
	// Arrival is the inter-arrival process.
	Arrival Arrival
	// Lifetime is the VM lifetime distribution, in hours.
	Lifetime Dist
	// WorkingSet is the distribution of a VM's base memory utilization
	// (resident-set fraction of its allocation), in [0,1]. It overrides
	// the archetype's base memory level.
	WorkingSet Dist
}

// Seasonality modulates arrival rates over the day and week. The
// instantaneous multiplier is
//
//	m(t) = (1 + DiurnalAmp*cos(2π(hour-PeakHour)/24)) * weekend(t)
//
// where weekend(t) is WeekendFactor on Saturday and Sunday and 1
// otherwise. With DiurnalAmp a, the weekday peak-to-trough arrival-rate
// ratio is (1+a)/(1-a).
type Seasonality struct {
	// DiurnalAmp is the relative amplitude of the daily cycle, in [0,1).
	DiurnalAmp float64
	// PeakHour is the hour of day [0,24) of maximum arrival rate.
	PeakHour float64
	// WeekendFactor scales Saturday and Sunday rates (1 = no weekly
	// cycle; business workloads < 1, consumer > 1). 0 means 1.
	WeekendFactor float64
}

// At returns the seasonality multiplier at the given hour of day and
// weekday.
func (s Seasonality) At(hour float64, wd time.Weekday) float64 {
	m := 1 + s.DiurnalAmp*math.Cos(2*math.Pi*(hour-s.PeakHour)/24)
	if wd == time.Saturday || wd == time.Sunday {
		m *= s.weekend()
	}
	return m
}

func (s Seasonality) weekend() float64 {
	if s.WeekendFactor == 0 {
		return 1
	}
	return s.WeekendFactor
}

// Surge is one correlated event: for its window it multiplies the
// arrival rate (and optionally the utilization amplitude) of the
// affected classes, and can re-home arrivals to one cluster. The three
// canonical kinds are:
//
//   - "regional-failover": arrivals re-homed to Cluster with a rate
//     bump — a region's load landing on the surviving clusters.
//   - "launch-stampede": a short, sharp RateMult spike for some classes.
//   - "black-friday": a day-long rate and utilization lift across
//     classes.
//
// Kind is a label; behaviour is entirely parameter-driven.
type Surge struct {
	// Kind labels the event (used in tables and docs).
	Kind string
	// Classes names the affected classes; empty means all.
	Classes []string
	// Day is the window start, in (fractional) days from scenario start.
	Day float64
	// DurationHours is the window length.
	DurationHours float64
	// RateMult multiplies affected classes' arrival rates during the
	// window (0 means 1).
	RateMult float64
	// UtilMult multiplies affected VMs' diurnal utilization amplitude
	// during the window (0 means 1). Applies to VMs of affected classes
	// whose lifetime overlaps the window.
	UtilMult float64
	// Cluster, when >= 0, re-homes affected arrivals during the window
	// to this cluster. -1 leaves homes unchanged.
	Cluster int
}

// window returns the surge's [start, end) sample interval.
func (sg *Surge) window() (start, end int) {
	start = int(sg.Day * timeseries.SamplesPerDay)
	end = start + int(sg.DurationHours*timeseries.SamplesPerHour)
	return start, end
}

// Active reports whether the surge window covers sample t.
func (sg *Surge) Active(t int) bool {
	start, end := sg.window()
	return t >= start && t < end
}

// Affects reports whether the surge applies to the named class.
func (sg *Surge) Affects(class string) bool {
	if len(sg.Classes) == 0 {
		return true
	}
	for _, c := range sg.Classes {
		if c == class {
			return true
		}
	}
	return false
}

func (sg *Surge) rateMult() float64 {
	if sg.RateMult == 0 {
		return 1
	}
	return sg.RateMult
}

// utilMultOr1 returns the utilization multiplier, defaulting to 1.
func (sg *Surge) utilMultOr1() float64 {
	if sg.UtilMult == 0 {
		return 1
	}
	return sg.UtilMult
}

// Fault is one injected failure. Unlike Surge.Day, Day counts from the
// start of the evaluation (served) period, not from scenario start: the
// simulator injects faults only into the half it replays after training,
// and a live coachd counts data-plane ticks from process start, so this
// convention makes the same spec line fire at the same evaluation tick
// in both. The kinds are:
//
//   - "crash": one server fails at Day and, with recover-hours > 0,
//     comes back empty after that long. cluster/server select the
//     victim; -1 picks one from the spec seed.
//   - "chaos": recurring seed-driven crashes over [Day, Day+duration)
//     (duration 0 = to the horizon) with exponential gaps of mean
//     mtbf-hours, each down for recover-hours.
//   - "train-fail": model training fails; coachd degrades to
//     best-fit-only admission, the simulator runs unpredicted.
//   - "latency": every request during [Day, Day+duration) is delayed by
//     delay-ms plus uniform jitter in [0, jitter-ms). Serving only.
//   - "handoff-crash": the cross-shard handoff coordinator dies at
//     phase (its nth pass through that crash point); the recovery
//     sweep must roll the interrupted handoff forward or back.
//     Serving only — the simulator's exchange is a serial barrier.
//
// Kind is semantic here (unlike Surge.Kind): it selects which fields
// apply.
type Fault struct {
	// Kind selects the failure mode (see above).
	Kind string
	// Day is the event (or window) start in fractional days from the
	// start of the evaluation period.
	Day float64
	// DurationHours bounds chaos and latency windows (0 = to horizon).
	DurationHours float64
	// RecoverHours is how long a crashed server stays down (0 = forever).
	RecoverHours float64
	// MTBFHours is the mean time between chaos crashes.
	MTBFHours float64
	// DelayMs and JitterMs shape injected request latency.
	DelayMs  float64
	JitterMs float64
	// Cluster and Server select a crash victim; -1 = seed-picked.
	Cluster int
	Server  int
	// Phase names the handoff crash point: {before,after}-{pick,reserve,
	// release,commit}.
	Phase string
	// Nth is which pass through the crash point fires (1-based; 0 = 1).
	Nth int
}

// FaultKinds lists the accepted Fault.Kind values.
var FaultKinds = []string{"crash", "chaos", "train-fail", "latency", "handoff-crash"}

// HandoffPhases lists the accepted handoff-crash Phase values, in
// protocol order.
var HandoffPhases = []string{
	"before-pick", "after-pick",
	"before-reserve", "after-reserve",
	"before-release", "after-release",
	"before-commit", "after-commit",
}

// Horizon returns the scenario length in 5-minute samples.
func (sp *Spec) Horizon() int { return sp.Days * timeseries.SamplesPerDay }

// WeekdayAt returns the weekday at sample t.
func (sp *Spec) WeekdayAt(t int) time.Weekday {
	day := t / timeseries.SamplesPerDay
	return time.Weekday((int(sp.StartWeekday) + day) % 7)
}

// RateAt returns the rate multiplier for class ci at sample t:
// seasonality times every active surge affecting the class. The class's
// absolute arrival rate is its calibrated base rate times this.
func (sp *Spec) RateAt(ci, t int) float64 {
	hour := float64(t%timeseries.SamplesPerDay) / timeseries.SamplesPerHour
	m := sp.Seasonality.At(hour, sp.WeekdayAt(t))
	name := sp.Classes[ci].Name
	for i := range sp.Surges {
		sg := &sp.Surges[i]
		if sg.Active(t) && sg.Affects(name) {
			m *= sg.rateMult()
		}
	}
	return m
}

// UtilMultAt returns the utilization amplitude multiplier for class ci
// at sample t (surge UtilMult of every active surge affecting the
// class; 1 outside surge windows).
func (sp *Spec) UtilMultAt(ci, t int) float64 {
	m := 1.0
	name := sp.Classes[ci].Name
	for i := range sp.Surges {
		sg := &sp.Surges[i]
		if sg.Active(t) && sg.Affects(name) {
			m *= sg.utilMultOr1()
		}
	}
	return m
}

// HomeClusterAt resolves the home cluster for a class-ci VM arriving at
// sample t whose default (pre-surge) choice is def: an active
// re-homing surge overrides it.
func (sp *Spec) HomeClusterAt(ci, t, def int) int {
	name := sp.Classes[ci].Name
	for i := range sp.Surges {
		sg := &sp.Surges[i]
		if sg.Cluster >= 0 && sg.Active(t) && sg.Affects(name) {
			return sg.Cluster
		}
	}
	return def
}

// SubscriptionRange returns the half-open subscription-ID interval
// [lo,hi) owned by class ci: subscriptions are split across classes
// proportionally to Fraction, every class getting at least one.
func (sp *Spec) SubscriptionRange(ci int) (lo, hi int) {
	bounds := sp.subscriptionBounds()
	return bounds[ci], bounds[ci+1]
}

// ClassOfSubscription returns the index of the class owning
// subscription ID sub, or -1 when out of range.
func (sp *Spec) ClassOfSubscription(sub int) int {
	bounds := sp.subscriptionBounds()
	for ci := range sp.Classes {
		if sub >= bounds[ci] && sub < bounds[ci+1] {
			return ci
		}
	}
	return -1
}

// subscriptionBounds computes cumulative class subscription boundaries:
// len(Classes)+1 entries from 0 to Subscriptions. Every class gets at
// least one subscription (Validate requires Subscriptions >=
// len(Classes)).
func (sp *Spec) subscriptionBounds() []int {
	n := len(sp.Classes)
	bounds := make([]int, n+1)
	var cum float64
	for i := 0; i < n; i++ {
		cum += sp.Classes[i].Fraction
		b := int(math.Round(cum * float64(sp.Subscriptions)))
		// Monotone with at least one subscription per class, and never
		// overshooting what the remaining classes still need.
		if min := bounds[i] + 1; b < min {
			b = min
		}
		if max := sp.Subscriptions - (n - 1 - i); b > max {
			b = max
		}
		bounds[i+1] = b
	}
	bounds[n] = sp.Subscriptions
	return bounds
}

// Scaled returns a copy of the spec with the population resized: VMs
// and Subscriptions replaced (Subscriptions is clamped to at least one
// per class). Scale-aware consumers (experiments.Context) use it so a
// preset's traffic shape can be replayed at any population size.
func (sp *Spec) Scaled(vms, subscriptions int) *Spec {
	out := *sp
	out.VMs = vms
	if subscriptions < len(sp.Classes) {
		subscriptions = len(sp.Classes)
	}
	out.Subscriptions = subscriptions
	return &out
}

// Validate reports the first structural problem with the spec.
func (sp *Spec) Validate() error {
	switch {
	case sp.Days < 1:
		return fmt.Errorf("scenario: Days %d < 1", sp.Days)
	case sp.VMs < 1:
		return fmt.Errorf("scenario: VMs %d < 1", sp.VMs)
	case sp.Clusters < 1:
		return fmt.Errorf("scenario: Clusters %d < 1", sp.Clusters)
	case sp.Subscriptions < len(sp.Classes):
		return fmt.Errorf("scenario: %d subscriptions for %d classes (need >= 1 per class)",
			sp.Subscriptions, len(sp.Classes))
	case sp.StartWeekday < time.Sunday || sp.StartWeekday > time.Saturday:
		return fmt.Errorf("scenario: StartWeekday %d outside [0,6]", sp.StartWeekday)
	case len(sp.Classes) == 0:
		return fmt.Errorf("scenario: no classes")
	case sp.UtilQuantum < 0 || sp.UtilQuantum > 0.5:
		return fmt.Errorf("scenario: util-quantum %g outside [0,0.5]", sp.UtilQuantum)
	}
	if s := sp.Seasonality; s.DiurnalAmp < 0 || s.DiurnalAmp >= 1 {
		return fmt.Errorf("scenario: seasonality diurnal-amp %g outside [0,1)", s.DiurnalAmp)
	} else if s.PeakHour < 0 || s.PeakHour >= 24 {
		return fmt.Errorf("scenario: seasonality peak-hour %g outside [0,24)", s.PeakHour)
	} else if s.WeekendFactor < 0 {
		return fmt.Errorf("scenario: seasonality weekend-factor %g < 0", s.WeekendFactor)
	}
	names := map[string]bool{}
	var fracSum float64
	for i := range sp.Classes {
		c := &sp.Classes[i]
		if c.Name == "" {
			return fmt.Errorf("scenario: class %d has no name", i)
		}
		if names[c.Name] {
			return fmt.Errorf("scenario: duplicate class %q", c.Name)
		}
		names[c.Name] = true
		if c.Fraction <= 0 || c.Fraction > 1 {
			return fmt.Errorf("scenario: class %q fraction %g outside (0,1]", c.Name, c.Fraction)
		}
		fracSum += c.Fraction
		switch c.Size {
		case "", "mixed", "small", "large":
		default:
			return fmt.Errorf("scenario: class %q size %q (want small, large or mixed)", c.Name, c.Size)
		}
		for _, cl := range c.Clusters {
			if cl < 0 || cl >= sp.Clusters {
				return fmt.Errorf("scenario: class %q cluster %d outside [0,%d)", c.Name, cl, sp.Clusters)
			}
		}
		if err := c.Arrival.Validate(); err != nil {
			return fmt.Errorf("scenario: class %q arrival: %w", c.Name, err)
		}
		if err := c.Lifetime.Validate(); err != nil {
			return fmt.Errorf("scenario: class %q lifetime: %w", c.Name, err)
		}
		if c.Lifetime.MeanValue() <= 0 {
			return fmt.Errorf("scenario: class %q lifetime mean %g <= 0 hours", c.Name, c.Lifetime.MeanValue())
		}
		if err := c.WorkingSet.Validate(); err != nil {
			return fmt.Errorf("scenario: class %q working-set: %w", c.Name, err)
		}
		if m := c.WorkingSet.MeanValue(); m > 1 {
			return fmt.Errorf("scenario: class %q working-set mean %g > 1 (fraction of allocation)", c.Name, m)
		}
	}
	if math.Abs(fracSum-1) > 1e-3 {
		return fmt.Errorf("scenario: class fractions sum to %g, want 1", fracSum)
	}
	for i := range sp.Surges {
		sg := &sp.Surges[i]
		if sg.Kind == "" {
			return fmt.Errorf("scenario: surge %d has no kind", i)
		}
		if sg.Day < 0 || sg.Day >= float64(sp.Days) {
			return fmt.Errorf("scenario: surge %q day %g outside [0,%d)", sg.Kind, sg.Day, sp.Days)
		}
		if sg.DurationHours <= 0 {
			return fmt.Errorf("scenario: surge %q duration %gh <= 0", sg.Kind, sg.DurationHours)
		}
		if sg.RateMult < 0 || sg.UtilMult < 0 {
			return fmt.Errorf("scenario: surge %q negative multiplier", sg.Kind)
		}
		if sg.Cluster < -1 || sg.Cluster >= sp.Clusters {
			return fmt.Errorf("scenario: surge %q cluster %d outside [-1,%d)", sg.Kind, sg.Cluster, sp.Clusters)
		}
		for _, name := range sg.Classes {
			if !names[name] {
				return fmt.Errorf("scenario: surge %q references unknown class %q", sg.Kind, name)
			}
		}
	}
	for i := range sp.Faults {
		if err := sp.Faults[i].validate(sp); err != nil {
			return fmt.Errorf("scenario: fault %d: %w", i, err)
		}
	}
	return nil
}

func (f *Fault) validate(sp *Spec) error {
	known := false
	for _, k := range FaultKinds {
		if f.Kind == k {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("unknown kind %q (have %v)", f.Kind, FaultKinds)
	}
	switch {
	case f.Day < 0:
		return fmt.Errorf("%s day %g < 0", f.Kind, f.Day)
	case f.DurationHours < 0:
		return fmt.Errorf("%s duration %gh < 0", f.Kind, f.DurationHours)
	case f.RecoverHours < 0:
		return fmt.Errorf("%s recover %gh < 0", f.Kind, f.RecoverHours)
	case f.DelayMs < 0 || f.JitterMs < 0:
		return fmt.Errorf("%s negative delay/jitter", f.Kind)
	case f.Cluster < -1 || f.Cluster >= sp.Clusters:
		return fmt.Errorf("%s cluster %d outside [-1,%d)", f.Kind, f.Cluster, sp.Clusters)
	case f.Server < -1:
		return fmt.Errorf("%s server %d < -1", f.Kind, f.Server)
	case f.Nth < 0:
		return fmt.Errorf("%s nth %d < 0", f.Kind, f.Nth)
	}
	if f.Kind == "chaos" && f.MTBFHours <= 0 {
		return fmt.Errorf("chaos mtbf %gh <= 0", f.MTBFHours)
	}
	if f.Kind != "chaos" && f.MTBFHours != 0 {
		return fmt.Errorf("%s has mtbf-hours (chaos only)", f.Kind)
	}
	if f.Kind == "handoff-crash" {
		ok := false
		for _, p := range HandoffPhases {
			if f.Phase == p {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("handoff-crash phase %q (have %v)", f.Phase, HandoffPhases)
		}
	} else if f.Phase != "" {
		return fmt.Errorf("%s has phase (handoff-crash only)", f.Kind)
	}
	return nil
}
