package trace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/timeseries"
)

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

// vmRand returns VM id's own rand stream, derived from (seed, id) alone
// so no VM's draws depend on another's or on which worker synthesizes it.
func vmRand(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(uint64(id+1)*0x9e3779b97f4a7c15)))
}

// defaultArchetypeWeights bias subscription archetypes toward the
// diurnal classes; "unpredictable" stays a small minority (<10% of VMs
// end up with no clear peaks). The "mixed" archetype of a scenario class
// draws from them per subscription.
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

// synthesizeShaped fills the VM's four utilization series, writing into
// util's reused series. The archetype fixes the diurnal shape; per-VM
// jitter keeps same-subscription VMs similar but not identical (Fig. 12:
// grouping by subscription+config yields the narrowest peak ranges).
// baseMemCenter is the memory base level (the class's working-set
// draw); ampAt, when non-nil, multiplies the diurnal activity amplitude
// at each trace sample (a surge's utilization lift).
func synthesizeShaped(vm *VM, tr *Trace, archp *Archetype, baseMemCenter float64, ampAt func(t int) float64, rng *rand.Rand, util *[resources.NumKinds]timeseries.Series) {
	arch := *archp

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

// scratch recycles the generator's per-VM sample buffers across VMs and
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
