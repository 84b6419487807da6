package scenario

import (
	"fmt"
	"math"
	"math/rand"
)

// DistKind enumerates the supported scalar distributions.
type DistKind int

const (
	// DistFixed always returns Value.
	DistFixed DistKind = iota
	// DistUniform is uniform on [Min, Max].
	DistUniform
	// DistExponential has the given Mean.
	DistExponential
	// DistLognormal has the given (arithmetic) Mean and log-space
	// standard deviation Sigma.
	DistLognormal
	// DistWeibull has the given Mean and shape parameter Shape.
	DistWeibull
)

var distNames = map[DistKind]string{
	DistFixed:       "fixed",
	DistUniform:     "uniform",
	DistExponential: "exponential",
	DistLognormal:   "lognormal",
	DistWeibull:     "weibull",
}

func (k DistKind) String() string {
	if s, ok := distNames[k]; ok {
		return s
	}
	return fmt.Sprintf("DistKind(%d)", int(k))
}

// ParseDistKind converts a distribution name into its kind.
func ParseDistKind(s string) (DistKind, error) {
	for k, name := range distNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown distribution %q (fixed|uniform|exponential|lognormal|weibull)", s)
}

// Dist is a scalar distribution. Scenarios use it for per-class VM
// lifetimes (in hours) and working-set fractions. Only the parameter
// fields relevant to Kind are meaningful.
type Dist struct {
	Kind DistKind
	// Value is the constant for DistFixed.
	Value float64
	// Min and Max bound DistUniform.
	Min, Max float64
	// Mean parameterizes DistExponential, DistLognormal and DistWeibull
	// (always the arithmetic mean).
	Mean float64
	// Sigma is the log-space standard deviation for DistLognormal.
	Sigma float64
	// Shape is the Weibull shape k (k < 1: heavy-tailed; k > 1:
	// concentrated around the mean).
	Shape float64
}

// Weibull returns a Weibull distribution with the given mean and shape.
func Weibull(mean, shape float64) Dist { return Dist{Kind: DistWeibull, Mean: mean, Shape: shape} }

// Validate reports an error for non-sensical parameters.
func (d Dist) Validate() error {
	switch d.Kind {
	case DistFixed:
		if d.Value < 0 || math.IsNaN(d.Value) || math.IsInf(d.Value, 0) {
			return fmt.Errorf("fixed value %g < 0", d.Value)
		}
	case DistUniform:
		if d.Min < 0 || d.Max < d.Min || math.IsInf(d.Max, 0) {
			return fmt.Errorf("uniform bounds [%g,%g] invalid", d.Min, d.Max)
		}
	case DistExponential:
		if !(d.Mean > 0) || math.IsInf(d.Mean, 0) {
			return fmt.Errorf("exponential mean %g <= 0", d.Mean)
		}
	case DistLognormal:
		if !(d.Mean > 0) || math.IsInf(d.Mean, 0) {
			return fmt.Errorf("lognormal mean %g <= 0", d.Mean)
		}
		if !(d.Sigma >= 0) || math.IsInf(d.Sigma, 0) {
			return fmt.Errorf("lognormal sigma %g < 0", d.Sigma)
		}
	case DistWeibull:
		if !(d.Mean > 0) || math.IsInf(d.Mean, 0) {
			return fmt.Errorf("weibull mean %g <= 0", d.Mean)
		}
		if !(d.Shape > 0) || math.IsInf(d.Shape, 0) {
			return fmt.Errorf("weibull shape %g <= 0", d.Shape)
		}
	default:
		return fmt.Errorf("unknown distribution kind %d", int(d.Kind))
	}
	return nil
}

// MeanValue returns the distribution's mean.
func (d Dist) MeanValue() float64 {
	switch d.Kind {
	case DistFixed:
		return d.Value
	case DistUniform:
		return (d.Min + d.Max) / 2
	default:
		return d.Mean
	}
}

// Sample draws one value (always >= 0).
func (d Dist) Sample(rng *rand.Rand) float64 {
	switch d.Kind {
	case DistFixed:
		return d.Value
	case DistUniform:
		return d.Min + rng.Float64()*(d.Max-d.Min)
	case DistExponential:
		return d.Mean * rng.ExpFloat64()
	case DistLognormal:
		// mu places the arithmetic mean at d.Mean: E[X] = exp(mu+sigma²/2).
		mu := math.Log(d.Mean) - d.Sigma*d.Sigma/2
		return math.Exp(mu + d.Sigma*rng.NormFloat64())
	case DistWeibull:
		// Inverse CDF with scale chosen for the requested mean:
		// E[X] = lambda*Gamma(1+1/k).
		lambda := d.Mean / math.Gamma(1+1/d.Shape)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return lambda * math.Pow(-math.Log(u), 1/d.Shape)
	default:
		return 0
	}
}
