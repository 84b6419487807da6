package scenario

import (
	"fmt"
	"math"
	"math/rand"
)

// Process enumerates the supported inter-arrival processes.
type Process int

const (
	// Poisson arrivals: exponential inter-arrival times (CV = 1,
	// memoryless) — the default for steady aggregate traffic.
	Poisson Process = iota
	// Gamma arrivals: gamma inter-arrival times with coefficient of
	// variation CV. CV > 1 clusters arrivals into bursts; CV < 1
	// regularizes them.
	Gamma
	// WeibullArrivals: Weibull inter-arrival times with shape Shape.
	// Shape < 1 is heavy-tailed (long gaps punctuated by clumps).
	WeibullArrivals
)

var processNames = map[Process]string{
	Poisson:         "poisson",
	Gamma:           "gamma",
	WeibullArrivals: "weibull",
}

func (p Process) String() string {
	if s, ok := processNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Process(%d)", int(p))
}

// ParseProcess converts a process name into its kind.
func ParseProcess(s string) (Process, error) {
	for p, name := range processNames {
		if name == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown arrival process %q (poisson|gamma|weibull)", s)
}

// Arrival specifies a renewal arrival process. Inter-arrival times are
// drawn with unit mean and mapped through the class's integrated rate,
// so seasonality and surges change the local rate while the process
// keeps its dispersion (CV) structure.
type Arrival struct {
	Process Process
	// CV is the inter-arrival coefficient of variation for Gamma
	// (0 means 1, i.e. Poisson-like).
	CV float64
	// Shape is the Weibull shape for WeibullArrivals (0 means 1).
	Shape float64
}

// Validate reports an error for out-of-range parameters.
func (a Arrival) Validate() error {
	switch a.Process {
	case Poisson:
	case Gamma:
		if a.CV < 0 || a.CV > 10 || math.IsNaN(a.CV) {
			return fmt.Errorf("gamma cv %g outside [0,10]", a.CV)
		}
	case WeibullArrivals:
		if a.Shape < 0 || math.IsNaN(a.Shape) || math.IsInf(a.Shape, 0) {
			return fmt.Errorf("weibull shape %g < 0", a.Shape)
		}
		if a.Shape != 0 && a.Shape < 0.2 {
			return fmt.Errorf("weibull shape %g < 0.2 (too heavy-tailed to calibrate)", a.Shape)
		}
	default:
		return fmt.Errorf("unknown process %d", int(a.Process))
	}
	return nil
}

// Draw samples one unit-mean inter-arrival time.
func (a Arrival) Draw(rng *rand.Rand) float64 {
	switch a.Process {
	case Gamma:
		cv := a.CV
		if cv == 0 {
			return rng.ExpFloat64()
		}
		k := 1 / (cv * cv)
		return gammaDraw(rng, k) / k
	case WeibullArrivals:
		k := a.Shape
		if k == 0 {
			k = 1
		}
		return Weibull(1, k).Sample(rng)
	default:
		return rng.ExpFloat64()
	}
}

// gammaDraw samples Gamma(shape k, scale 1) by Marsaglia-Tsang, with
// the standard U^(1/k) boost for k < 1.
func gammaDraw(rng *rand.Rand, k float64) float64 {
	if k < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaDraw(rng, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// classSeed derives the deterministic RNG seed for class ci's arrival
// stream (splitmix-style odd-constant mixing, matching the trace
// generator's per-VM scheme).
func (sp *Spec) classSeed(ci int) int64 {
	return sp.Seed ^ int64(uint64(ci+1)*0xbf58476d1ce4e5b9)
}

// BaseRate returns class ci's calibrated base arrival rate in arrivals
// per 5-minute sample: the rate that makes the expected arrival count
// over the horizon (under seasonality and surges) equal VMs*Fraction.
func (sp *Spec) BaseRate(ci int) float64 {
	var sum float64
	for t := 0; t < sp.Horizon(); t++ {
		sum += sp.RateAt(ci, t)
	}
	if sum == 0 {
		return 0
	}
	return float64(sp.VMs) * sp.Classes[ci].Fraction / sum
}

// ClassArrivals generates class ci's arrival stream: sorted sample
// indices over the horizon, deterministic in (Seed, ci). Unit-mean
// renewal draws are mapped through the inverse integrated rate
// (piecewise-constant per sample), so the realized count is close to
// VMs*Fraction and the inter-arrival dispersion matches the process.
func (sp *Spec) ClassArrivals(ci int) []int {
	rng := rand.New(rand.NewSource(sp.classSeed(ci)))
	base := sp.BaseRate(ci)
	if base == 0 {
		return nil
	}
	arr := sp.Classes[ci].Arrival
	out := make([]int, 0, int(float64(sp.VMs)*sp.Classes[ci].Fraction)+8)
	acc := 0.0
	next := arr.Draw(rng)
	for t := 0; t < sp.Horizon(); t++ {
		acc += base * sp.RateAt(ci, t)
		for next <= acc {
			out = append(out, t)
			next += arr.Draw(rng)
		}
	}
	return out
}
