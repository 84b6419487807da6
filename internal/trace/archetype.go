package trace

import "math"

// Archetype is a behavioural template for the workloads of one customer
// subscription. The paper observes (§2.3) that VMs exhibit daily peaks and
// valleys at consistent times, that memory fluctuates within narrow bounds
// while CPU swings widely, and that VMs from the same subscription behave
// alike (Fig. 12). Archetypes encode those facts; the generator assigns one
// per subscription and jitters its parameters per VM.
type Archetype struct {
	Name string

	// BaseCPU is the off-peak CPU utilization fraction.
	BaseCPU float64
	// PeakCPU is the additional CPU utilization at the top of the daily
	// peak (so peak utilization ~= BaseCPU + PeakCPU).
	PeakCPU float64
	// PeakHour is the hour of day [0,24) at which activity peaks.
	PeakHour float64
	// PeakWidthHours is the standard deviation of the Gaussian activity
	// bump around PeakHour.
	PeakWidthHours float64
	// SecondPeakHour, when >= 0, adds a second daily bump at 60% height.
	SecondPeakHour float64

	// PeakMem is the additional memory utilization at the top of the
	// daily peak; the base level is the scenario class's working-set
	// draw. Memory ranges are much narrower than CPU (§2.3: 50% of VMs
	// have a memory range below 10%).
	PeakMem float64

	// WeekendFactor scales the peak amplitude on Saturday and Sunday
	// (1 = unchanged; business workloads use < 1, consumer ones > 1).
	WeekendFactor float64

	// NoiseCPU and NoiseMem are the standard deviations of per-sample
	// Gaussian noise.
	NoiseCPU float64
	NoiseMem float64

	// SpikeProb is the per-sample probability of a short CPU burst of
	// amplitude SpikeAmp (the 0-8h spikes visible in Fig. 7).
	SpikeProb float64
	SpikeAmp  float64
}

// Archetypes is the catalogue the generator draws from. The mix covers the
// pattern classes the paper identifies: daytime/business peaks, nightly
// batch, morning and evening peaks, double peaks, near-constant high and
// low utilization, and unpredictable VMs (<10% of VMs have no CPU
// peaks/valleys, Fig. 8; prior work's periodic/constant/unpredictable
// classes, §2.3).
var Archetypes = []Archetype{
	{
		Name: "business-hours", BaseCPU: 0.10, PeakCPU: 0.45, PeakHour: 13, PeakWidthHours: 3.5,
		SecondPeakHour: -1, PeakMem: 0.15, WeekendFactor: 0.35,
		NoiseCPU: 0.03, NoiseMem: 0.010, SpikeProb: 0.015, SpikeAmp: 0.30,
	},
	{
		Name: "nightly-batch", BaseCPU: 0.08, PeakCPU: 0.55, PeakHour: 2, PeakWidthHours: 2.5,
		SecondPeakHour: -1, PeakMem: 0.20, WeekendFactor: 1.0,
		NoiseCPU: 0.03, NoiseMem: 0.012, SpikeProb: 0.012, SpikeAmp: 0.25,
	},
	{
		Name: "morning-peak", BaseCPU: 0.12, PeakCPU: 0.40, PeakHour: 8, PeakWidthHours: 2.0,
		SecondPeakHour: -1, PeakMem: 0.12, WeekendFactor: 0.6,
		NoiseCPU: 0.035, NoiseMem: 0.010, SpikeProb: 0.015, SpikeAmp: 0.25,
	},
	{
		Name: "evening-peak", BaseCPU: 0.12, PeakCPU: 0.42, PeakHour: 20, PeakWidthHours: 2.5,
		SecondPeakHour: -1, PeakMem: 0.14, WeekendFactor: 1.25,
		NoiseCPU: 0.035, NoiseMem: 0.010, SpikeProb: 0.015, SpikeAmp: 0.25,
	},
	{
		Name: "double-peak", BaseCPU: 0.10, PeakCPU: 0.38, PeakHour: 10, PeakWidthHours: 1.8,
		SecondPeakHour: 19, PeakMem: 0.12, WeekendFactor: 0.8,
		NoiseCPU: 0.03, NoiseMem: 0.010, SpikeProb: 0.015, SpikeAmp: 0.25,
	},
	{
		Name: "steady-high", BaseCPU: 0.55, PeakCPU: 0.08, PeakHour: 12, PeakWidthHours: 5,
		SecondPeakHour: -1, PeakMem: 0.05, WeekendFactor: 1.0,
		NoiseCPU: 0.02, NoiseMem: 0.008, SpikeProb: 0.008, SpikeAmp: 0.15,
	},
	{
		Name: "steady-low", BaseCPU: 0.06, PeakCPU: 0.03, PeakHour: 12, PeakWidthHours: 6,
		SecondPeakHour: -1, PeakMem: 0.03, WeekendFactor: 1.0,
		NoiseCPU: 0.012, NoiseMem: 0.006, SpikeProb: 0.006, SpikeAmp: 0.10,
	},
	{
		Name: "unpredictable", BaseCPU: 0.20, PeakCPU: 0.15, PeakHour: 15, PeakWidthHours: 4,
		SecondPeakHour: -1, PeakMem: 0.10, WeekendFactor: 1.0,
		NoiseCPU: 0.14, NoiseMem: 0.05, SpikeProb: 0.02, SpikeAmp: 0.45,
	},
}

// activity returns the diurnal activity factor in [0,1] at the given hour
// of day for the archetype: a wrapped-Gaussian bump around PeakHour, plus
// an optional 60%-height secondary bump.
func (a *Archetype) activity(hour float64) float64 {
	act := gaussBump(hour, a.PeakHour, a.PeakWidthHours)
	if a.SecondPeakHour >= 0 {
		act += 0.6 * gaussBump(hour, a.SecondPeakHour, a.PeakWidthHours)
	}
	if act > 1 {
		act = 1
	}
	return act
}

// gaussBump evaluates a circular (24h-wrapped) Gaussian bump.
func gaussBump(hour, center, width float64) float64 {
	d := math.Abs(hour - center)
	if d > 12 {
		d = 24 - d
	}
	return math.Exp(-d * d / (2 * width * width))
}
