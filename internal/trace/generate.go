package trace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/coach-oss/coach/internal/par"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/timeseries"
)

// GenConfig parameterizes the synthetic trace generator. The defaults are
// calibrated so the generated population reproduces the distributional
// facts of §2 (see trace tests for the assertions): ~28% of VMs outlive one
// day while holding ~96% of core-hours, a median VM of 4 cores and <16GB,
// narrow memory ranges, wide CPU ranges, and consistent daily peaks.
type GenConfig struct {
	Seed int64
	// Days is the trace horizon in days (paper: 14).
	Days int
	// VMs is the total number of VM records to generate.
	VMs int
	// Subscriptions is the number of customer subscriptions.
	Subscriptions int
	// Clusters is the number of home clusters (paper: 10).
	Clusters int
	// LongRunningFrac is the fraction of VMs lasting more than one day
	// (paper Fig. 2: ~28%).
	LongRunningFrac float64
	// StartWeekday is the weekday of sample 0.
	StartWeekday time.Weekday
}

// DefaultGenConfig returns the calibrated default configuration: a 2-week,
// 10-cluster trace, scaled down in VM count to laptop size.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:            42,
		Days:            14,
		VMs:             2000,
		Subscriptions:   120,
		Clusters:        10,
		LongRunningFrac: 0.28,
		StartWeekday:    time.Monday,
	}
}

// Validate reports an error for out-of-range parameters.
func (c GenConfig) Validate() error {
	switch {
	case c.Days < 1:
		return fmt.Errorf("trace: GenConfig.Days %d < 1", c.Days)
	case c.VMs < 1:
		return fmt.Errorf("trace: GenConfig.VMs %d < 1", c.VMs)
	case c.Subscriptions < 1:
		return fmt.Errorf("trace: GenConfig.Subscriptions %d < 1", c.Subscriptions)
	case c.Clusters < 1:
		return fmt.Errorf("trace: GenConfig.Clusters %d < 1", c.Clusters)
	case c.LongRunningFrac < 0 || c.LongRunningFrac > 1:
		return fmt.Errorf("trace: GenConfig.LongRunningFrac %f outside [0,1]", c.LongRunningFrac)
	case c.StartWeekday < time.Sunday || c.StartWeekday > time.Saturday:
		// Previously ignored: an out-of-range weekday silently shifted
		// WeekdayAt into nonsense values that never matched Saturday or
		// Sunday, so weekend dampening disappeared from the whole trace.
		return fmt.Errorf("trace: GenConfig.StartWeekday %d outside [Sunday,Saturday]", c.StartWeekday)
	}
	return nil
}

// DefaultConfigs returns the sellable VM configurations: general-purpose
// (4 GB/core), compute-optimized (2 GB/core) and memory-optimized
// (8 and 16 GB/core) shapes across the size ladder, mirroring the
// explosion of VM configurations the paper describes (§2.2).
func DefaultConfigs() []VMConfig {
	var out []VMConfig
	cores := []float64{1, 2, 4, 8, 16, 32, 40}
	ratios := []struct {
		suffix string
		gbPer  float64
	}{
		{"c", 2},  // compute optimized
		{"d", 4},  // general purpose
		{"e", 8},  // memory optimized
		{"m", 16}, // large memory
	}
	for _, r := range ratios {
		for _, c := range cores {
			out = append(out, VMConfig{
				Name: fmt.Sprintf("%s%g", r.suffix, c),
				Alloc: resources.NewVector(
					c,         // cores
					c*r.gbPer, // GB memory
					0.25*c,    // Gbps network
					32*c,      // GB SSD
				),
			})
		}
	}
	return out
}

// Generate synthesizes a trace. The same config always yields the same
// trace: every VM derives its own rand stream from (Seed, VM ID) and
// writes only its own record, so VMs synthesize on every core and the
// trace is byte-identical for any GOMAXPROCS.
func Generate(cfg GenConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{
		Horizon:      cfg.Days * timeseries.SamplesPerDay,
		StartWeekday: cfg.StartWeekday,
		Configs:      DefaultConfigs(),
		Clusters:     cfg.Clusters,
	}

	tr.Subscriptions = make([]Subscription, cfg.Subscriptions)
	for i := range tr.Subscriptions {
		tr.Subscriptions[i] = Subscription{
			ID:        i,
			Type:      pickSubscriptionType(rng),
			Archetype: pickWeighted(rng, defaultArchetypeWeights),
		}
	}

	tr.VMs = make([]VM, cfg.VMs)
	par.ForEach(0, len(tr.VMs), func(i int) {
		util := scratch.Get().(*[resources.NumKinds]timeseries.Series)
		tr.VMs[i] = generateVM(cfg, tr, i, vmRand(cfg.Seed, i), util)
		scratch.Put(util)
	})
	return tr, nil
}

// vmRand returns VM id's own rand stream, derived from (seed, id) alone
// so no VM's draws depend on another's or on which worker synthesizes it.
func vmRand(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(uint64(id+1)*0x9e3779b97f4a7c15)))
}

// defaultArchetypeWeights bias subscription archetypes toward the
// diurnal classes; "unpredictable" stays a small minority (<10% of VMs
// end up with no clear peaks). Shared by the GenConfig generator and
// the scenario path's "mixed" classes.
var defaultArchetypeWeights = []float64{0.24, 0.14, 0.10, 0.12, 0.10, 0.12, 0.12, 0.06}

func pickSubscriptionType(rng *rand.Rand) SubscriptionType {
	r := rng.Float64()
	switch {
	case r < 0.62:
		return Production
	case r < 0.87:
		return Test
	default:
		return InternalProduction
	}
}

func pickWeighted(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	r := rng.Float64() * total
	for i, w := range weights {
		if r < w {
			return i
		}
		r -= w
	}
	return len(weights) - 1
}

// generateVM creates VM i with its full utilization, synthesized into
// util, which keeps the samples, and run-encoded.
func generateVM(cfg GenConfig, tr *Trace, id int, rng *rand.Rand, util *[resources.NumKinds]timeseries.Series) VM {
	long := rng.Float64() < cfg.LongRunningFrac
	start, end := sampleLifetime(cfg, rng, long)

	sub := &tr.Subscriptions[rng.Intn(len(tr.Subscriptions))]
	cfgIdx := sampleConfig(rng, long, len(tr.Configs))

	offering := IaaS
	if rng.Float64() < 0.35 {
		offering = PaaS
	}

	vm := VM{
		ID:           id,
		Subscription: sub.ID,
		Config:       cfgIdx,
		Alloc:        tr.Configs[cfgIdx].Alloc,
		Start:        start,
		End:          end,
		Offering:     offering,
		Cluster:      rng.Intn(cfg.Clusters),
	}
	synthesizeUtil(&vm, tr, sub, rng, util)
	vm.Runs = timeseries.NewRuns(*util)
	return vm
}

// sampleLifetime draws a VM lifetime in samples. Short VMs are minutes to
// hours; long VMs last 1 day to multiple weeks (clipped by the horizon).
// Half of the long VMs predate the trace and are live at sample 0,
// matching how a production snapshot observes long-running VMs.
func sampleLifetime(cfg GenConfig, rng *rand.Rand, long bool) (start, end int) {
	horizon := cfg.Days * timeseries.SamplesPerDay
	if long {
		// Duration: 1 day + Exp(mean 5 days).
		days := 1 + rng.ExpFloat64()*5
		dur := int(days * timeseries.SamplesPerDay)
		if dur > horizon {
			dur = horizon
		}
		if rng.Float64() < 0.5 {
			start = 0
		} else {
			start = rng.Intn(horizon - dur + 1)
		}
		end = start + dur
		return start, end
	}
	// Short VM: log-uniform between 5 minutes and ~20 hours.
	minS, maxS := 1.0, 20.0*timeseries.SamplesPerHour
	dur := int(math.Exp(rng.Float64()*math.Log(maxS/minS)) * minS)
	if dur < 1 {
		dur = 1
	}
	if dur >= horizon {
		dur = horizon - 1
	}
	start = rng.Intn(horizon - dur)
	end = start + dur
	return start, end
}

// sampleConfig picks a VM configuration index. Long-running VMs skew
// larger (§2.1: larger VMs hold most resource hours). Config layout is
// 4 ratio families x 7 sizes (see DefaultConfigs).
func sampleConfig(rng *rand.Rand, long bool, numConfigs int) int {
	// Size ladder weights over {1,2,4,8,16,32,40} cores.
	var sizeW []float64
	if long {
		sizeW = []float64{0.07, 0.15, 0.28, 0.22, 0.15, 0.09, 0.04}
	} else {
		sizeW = []float64{0.20, 0.27, 0.30, 0.13, 0.06, 0.03, 0.01}
	}
	size := pickWeighted(rng, sizeW)
	// Ratio family weights: compute, general, memory, large-memory. The
	// mix averages ~4.6 GB/core, aligned with the general-purpose server
	// shapes (misalignment is studied separately in the stranding
	// analysis, §2.2).
	ratio := pickWeighted(rng, []float64{0.18, 0.62, 0.15, 0.05})
	idx := ratio*7 + size
	if idx >= numConfigs {
		idx = numConfigs - 1
	}
	return idx
}

// synthesizeUtil fills the VM's four utilization series. The subscription
// archetype fixes the diurnal shape; per-VM jitter keeps same-subscription
// VMs similar but not identical (Fig. 12: grouping by subscription+config
// yields the narrowest peak ranges).
func synthesizeUtil(vm *VM, tr *Trace, sub *Subscription, rng *rand.Rand, util *[resources.NumKinds]timeseries.Series) {
	synthesizeShaped(vm, tr, &Archetypes[sub.Archetype], -1, nil, rng, util)
}

// synthesizeShaped is the shared series synthesizer behind both
// generators, writing into util's reused series. baseMem >= 0 re-centers
// the memory base level (the scenario path's per-class working-set
// draw); ampAt, when non-nil, multiplies the diurnal activity amplitude
// at each trace sample (the scenario path's surge utilization lift).
func synthesizeShaped(vm *VM, tr *Trace, archp *Archetype, baseMemCenter float64, ampAt func(t int) float64, rng *rand.Rand, util *[resources.NumKinds]timeseries.Series) {
	arch := *archp
	if baseMemCenter < 0 {
		baseMemCenter = arch.BaseMem
	}

	// Per-VM jitter: small shifts in base, amplitude and phase. Memory
	// jitter is narrower than CPU, reflecting the tighter within-group
	// memory predictability of Fig. 12.
	baseCPU := clamp01(arch.BaseCPU + 0.04*rng.NormFloat64())
	peakCPU := math.Max(0, arch.PeakCPU*(1+0.15*rng.NormFloat64()))
	baseMem := clamp01(baseMemCenter + 0.02*rng.NormFloat64())
	peakMem := math.Max(0, arch.PeakMem*(1+0.10*rng.NormFloat64()))
	phase := 0.5 * rng.NormFloat64() // hours

	n := vm.DurationSamples()
	for k := range util {
		util[k] = slices.Grow(util[k][:0], n)[:n]
	}

	// Memory has day-scale persistence: a slowly drifting resident set.
	memDrift := 0.0
	// The diurnal activity depends only on the time of day: computed over
	// the first day, then read back.
	var acts [timeseries.SamplesPerDay]float64

	for i := 0; i < n; i++ {
		t := vm.Start + i
		slot := t % timeseries.SamplesPerDay
		if i < timeseries.SamplesPerDay {
			acts[slot] = arch.activity(float64(slot)/timeseries.SamplesPerHour + phase)
		}
		weekday := tr.WeekdayAt(t)
		amp := 1.0
		if weekday == time.Saturday || weekday == time.Sunday {
			amp = arch.WeekendFactor
		}
		if ampAt != nil {
			amp *= ampAt(t)
		}
		act := acts[slot]

		cpu := baseCPU + amp*peakCPU*act + arch.NoiseCPU*rng.NormFloat64()
		if rng.Float64() < arch.SpikeProb {
			cpu += arch.SpikeAmp * rng.Float64()
		}

		if i%timeseries.SamplesPerHour == 0 {
			memDrift = 0.9*memDrift + 0.005*rng.NormFloat64()
		}
		mem := baseMem + amp*peakMem*act + memDrift + arch.NoiseMem*rng.NormFloat64()
		// Occasional short memory spikes (page-cache fills, batch jobs):
		// they lift the window maximum above the window percentile, the
		// gap Coach's VA portion absorbs and multiplexes (Fig. 16).
		if rng.Float64() < arch.SpikeProb {
			mem += 0.7 * arch.SpikeAmp * rng.Float64()
		}

		// Network follows CPU activity with lower base; SSD space behaves
		// like memory (slow, narrow) per §2.3 ("network and storage
		// resemble memory/CPU" respectively).
		net := 0.6*cpu + 0.02*rng.NormFloat64()
		ssd := 0.5*mem + 0.1 + 0.01*rng.NormFloat64()

		util[resources.CPU][i] = clamp01(cpu)
		util[resources.Memory][i] = clamp01(mem)
		util[resources.Network][i] = clamp01(net)
		util[resources.SSD][i] = clamp01(ssd)
	}
}

// scratch recycles the generators' per-VM sample buffers across VMs and
// workers.
var scratch = sync.Pool{New: func() any { return new([resources.NumKinds]timeseries.Series) }}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
