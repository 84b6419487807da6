package scenario

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// PresetNames lists the shipped presets in canonical order: the two
// traffic shapes the experiments already exercised implicitly
// (capacity, skewed-hot-cold), the four that open new axes (bursty,
// diurnal, surge, churn), and the event-replay stressor whose
// population churns while utilization barely moves (sparse-churn).
// chaos, the failure-domain stressor, injects a deterministic crash
// schedule on top of a capacity-like mix.
var PresetNames = []string{"capacity", "skewed-hot-cold", "bursty", "diurnal", "surge", "churn", "sparse-churn", "chaos"}

// Preset returns a fresh copy of the named preset spec.
func Preset(name string) (*Spec, error) {
	mk, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown preset %q (have %s)", name, strings.Join(PresetNames, ", "))
	}
	return mk(), nil
}

// Load resolves a preset name or reads and parses a spec file. The
// loaded spec is validated.
func Load(nameOrPath string) (*Spec, error) {
	if _, ok := presets[nameOrPath]; ok {
		return Preset(nameOrPath)
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		names := strings.Join(PresetNames, ", ")
		return nil, fmt.Errorf("scenario: %q is neither a preset (%s) nor a readable spec file: %w",
			nameOrPath, names, err)
	}
	sp, err := Parse(string(data))
	if err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", nameOrPath, err)
	}
	return sp, nil
}

var presets = map[string]func() *Spec{
	"capacity":        presetCapacity,
	"skewed-hot-cold": presetSkewedHotCold,
	"bursty":          presetBursty,
	"diurnal":         presetDiurnal,
	"surge":           presetSurge,
	"churn":           presetChurn,
	"sparse-churn":    presetSparseChurn,
	"chaos":           presetChaos,
}

func base(name string, seed int64) *Spec {
	return &Spec{
		Name:          name,
		Seed:          seed,
		Days:          14,
		VMs:           2000,
		Subscriptions: 120,
		Clusters:      10,
		StartWeekday:  time.Monday,
	}
}

// presetCapacity is the default workload, the trace every tool and
// experiment runs on unless told otherwise: a resident core holding most
// resource-hours, daily business traffic, nightly batch and short-lived
// test churn, under gentle business-week seasonality, matching the §2
// distributions (the trace package's calibration tests hold it to them).
// It is the neutral baseline the Fig. 20 capacity comparison packs into
// a fixed fleet.
func presetCapacity() *Spec {
	sp := base("capacity", 42)
	sp.Seasonality = Seasonality{DiurnalAmp: 0.3, PeakHour: 14, WeekendFactor: 0.8}
	sp.Classes = []Class{
		{
			Name: "resident", Fraction: 0.28, Size: "large",
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(140, 1.0), WorkingSet: Uniform(0.35, 0.7),
		},
		{
			Name: "daily", Fraction: 0.3, Archetype: "business-hours",
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(30, 0.8), WorkingSet: Uniform(0.3, 0.6),
		},
		{
			Name: "batch", Fraction: 0.22, Archetype: "nightly-batch",
			Arrival:  PoissonArrival(),
			Lifetime: Exponential(8), WorkingSet: Uniform(0.25, 0.55),
		},
		{
			Name: "test", Fraction: 0.2, Size: "small",
			Arrival:  PoissonArrival(),
			Lifetime: Exponential(3), WorkingSet: Uniform(0.15, 0.4),
		},
	}
	return sp
}

// presetSkewedHotCold formalizes the skewed fleet of the migration
// experiments: a small hot class of large, memory-hungry, long-lived
// VMs pinned to two clusters, over a cold majority spread fleet-wide —
// the shape where mitigation ladders and cross-shard migration earn
// their keep.
func presetSkewedHotCold() *Spec {
	sp := base("skewed-hot-cold", 1007)
	sp.Seasonality = Seasonality{DiurnalAmp: 0.2, PeakHour: 13, WeekendFactor: 1}
	sp.Classes = []Class{
		{
			Name: "hot", Fraction: 0.15, Archetype: "steady-high", Size: "large",
			Clusters: []int{0, 1},
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(180, 0.8), WorkingSet: Uniform(0.6, 0.9),
		},
		{
			Name: "cold", Fraction: 0.85, Archetype: "steady-low",
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(40, 1.2), WorkingSet: Uniform(0.1, 0.3),
		},
	}
	return sp
}

// presetBursty trades Poisson smoothness for clumped arrivals: gamma
// inter-arrivals at CV 3 on the interactive class and a heavy-tailed
// Weibull batch class, stressing admission with temporary overloads at
// unchanged average rate.
func presetBursty() *Spec {
	sp := base("bursty", 7)
	sp.Seasonality = Seasonality{DiurnalAmp: 0.25, PeakHour: 15, WeekendFactor: 0.9}
	sp.Classes = []Class{
		{
			Name: "interactive", Fraction: 0.55, Archetype: "business-hours",
			Arrival:  GammaArrival(3),
			Lifetime: Lognormal(36, 1.0), WorkingSet: Uniform(0.3, 0.65),
		},
		{
			Name: "batch", Fraction: 0.45, Archetype: "nightly-batch",
			Arrival:  WeibullArrival(0.55),
			Lifetime: Exponential(10), WorkingSet: Uniform(0.25, 0.55),
		},
	}
	return sp
}

// presetDiurnal pushes seasonality to the front: a 0.7 diurnal
// amplitude ((1+a)/(1-a) ~ 5.7x peak-to-trough), half-rate weekends,
// and phase-spread daily archetypes — the scenario where time-window
// policies should shine over whole-day ones.
func presetDiurnal() *Spec {
	sp := base("diurnal", 99)
	sp.Seasonality = Seasonality{DiurnalAmp: 0.7, PeakHour: 13, WeekendFactor: 0.5}
	sp.Classes = []Class{
		{
			Name: "office", Fraction: 0.45, Archetype: "business-hours",
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(48, 0.9), WorkingSet: Uniform(0.3, 0.6),
		},
		{
			Name: "morning", Fraction: 0.25, Archetype: "morning-peak",
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(30, 0.9), WorkingSet: Uniform(0.3, 0.6),
		},
		{
			Name: "evening", Fraction: 0.3, Archetype: "evening-peak",
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(30, 0.9), WorkingSet: Uniform(0.3, 0.6),
		},
	}
	return sp
}

// presetSurge layers the three canonical correlated events over a
// steady base: a launch-day stampede (sharp, one class), a regional
// failover (arrivals re-homed to one cluster), and a black friday
// (day-long rate and utilization lift across classes). All windows sit
// in the evaluation week so simulators see them after training.
func presetSurge() *Spec {
	sp := base("surge", 1234)
	sp.Seasonality = Seasonality{DiurnalAmp: 0.3, PeakHour: 14, WeekendFactor: 0.85}
	sp.Classes = []Class{
		{
			Name: "web", Fraction: 0.5, Archetype: "business-hours",
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(40, 1.0), WorkingSet: Uniform(0.3, 0.65),
		},
		{
			Name: "api", Fraction: 0.3, Archetype: "double-peak",
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(60, 0.9), WorkingSet: Uniform(0.35, 0.7),
		},
		{
			Name: "launch", Fraction: 0.2, Archetype: "unpredictable",
			Arrival:  GammaArrival(2),
			Lifetime: Exponential(12), WorkingSet: Uniform(0.3, 0.6),
		},
	}
	sp.Surges = []Surge{
		{
			Kind: "launch-stampede", Classes: []string{"launch"},
			Day: 8.25, DurationHours: 6, RateMult: 6, Cluster: -1,
		},
		{
			Kind: "regional-failover", Classes: []string{"web", "api"},
			Day: 10, DurationHours: 12, RateMult: 1.5, Cluster: 2,
		},
		{
			Kind: "black-friday",
			Day:  12, DurationHours: 24, RateMult: 2.5, UtilMult: 1.25, Cluster: -1,
		},
	}
	return sp
}

// presetChurn inverts the population: 80% of arrivals are short-lived
// small VMs on a heavy-tailed arrival process, over a thin resident
// base (which also keeps the predictor trainable). Placement and
// release bookkeeping dominate; prediction value is marginal.
func presetChurn() *Spec {
	sp := base("churn", 271828)
	sp.Seasonality = Seasonality{DiurnalAmp: 0.35, PeakHour: 12, WeekendFactor: 0.9}
	sp.Classes = []Class{
		{
			Name: "ephemeral", Fraction: 0.8, Size: "small",
			Arrival:  WeibullArrival(0.7),
			Lifetime: Exponential(2), WorkingSet: Uniform(0.2, 0.5),
		},
		{
			Name: "resident", Fraction: 0.2, Size: "large",
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(120, 0.9), WorkingSet: Uniform(0.35, 0.7),
		},
	}
	return sp
}

// presetSparseChurn models the fleet the event-driven simulator core is
// built for: a large steady population whose quantized utilization
// samples stay flat for long runs (most VMs change demand at only a
// handful of ticks), plus an ephemeral tail that keeps placement and
// release bookkeeping honest. A full replay visits every VM every tick;
// event replay visits each VM only at its change points — this preset
// is where the gap is widest, and sim's TestEventCoreVisits pins it here.
func presetSparseChurn() *Spec {
	sp := base("sparse-churn", 424242)
	sp.Seasonality = Seasonality{DiurnalAmp: 0.2, PeakHour: 13, WeekendFactor: 0.9}
	sp.UtilQuantum = 0.3
	sp.Classes = []Class{
		{
			Name: "steady-core", Fraction: 0.6, Archetype: "steady-high", Size: "large",
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(200, 0.6), WorkingSet: Uniform(0.45, 0.7),
		},
		{
			Name: "cold-tier", Fraction: 0.25, Archetype: "steady-low",
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(160, 0.7), WorkingSet: Uniform(0.15, 0.35),
		},
		{
			Name: "ephemeral", Fraction: 0.15, Size: "small", Archetype: "steady-low",
			Arrival:  WeibullArrival(0.8),
			Lifetime: Exponential(3), WorkingSet: Uniform(0.2, 0.4),
		},
	}
	return sp
}

// presetChaos is the failure-domain stressor: a capacity-like mix with
// a long-lived resident core (so crashed servers hold real state) under
// a deterministic fault schedule — recurring seed-driven crashes from
// half a day into the evaluation period, one pinned crash with
// recovery, and a train failure is deliberately absent so the chaos run
// measures crash handling, not degraded admission. The abl-faults
// experiment and the CI chaos-smoke job both replay it; fault days
// count from the start of the evaluation period (see Fault).
func presetChaos() *Spec {
	sp := base("chaos", 5150)
	sp.Seasonality = Seasonality{DiurnalAmp: 0.3, PeakHour: 14, WeekendFactor: 0.85}
	sp.Classes = []Class{
		{
			Name: "resident", Fraction: 0.45, Size: "large",
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(150, 0.9), WorkingSet: Uniform(0.35, 0.7),
		},
		{
			Name: "daily", Fraction: 0.35, Archetype: "business-hours",
			Arrival:  PoissonArrival(),
			Lifetime: Lognormal(30, 0.8), WorkingSet: Uniform(0.3, 0.6),
		},
		{
			Name: "test", Fraction: 0.2, Size: "small",
			Arrival:  WeibullArrival(0.7),
			Lifetime: Exponential(4), WorkingSet: Uniform(0.15, 0.4),
		},
	}
	sp.Faults = []Fault{
		{Kind: "crash", Day: 0.25, Cluster: 0, Server: 0, RecoverHours: 6},
		{Kind: "chaos", Day: 0.5, MTBFHours: 8, RecoverHours: 3, Cluster: -1, Server: -1},
	}
	return sp
}
