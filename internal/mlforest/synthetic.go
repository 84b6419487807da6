package mlforest

import (
	"math"
	"math/rand"
)

// TraceLikeSamples synthesizes a deterministic regression set shaped like
// the long-term predictor's training rows: 10-dimensional vectors with
// mixed categorical and continuous features and a target driven by a few
// of them. It is the fixed dataset behind the training benchmark
// (BenchmarkForestTrain) and the engine-parity guard
// (TestMSEParityWithSeedEngine), whose recorded constant assumes this
// exact distribution, so changing it invalidates that constant.
func TraceLikeSamples(n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		f := make([]float64, 10)
		f[0] = float64(1 + rng.Intn(16))         // cores
		f[1] = f[0] * (1 + 3*rng.Float64())      // memory GB
		f[2] = f[1] / f[0]                       // GB/core
		f[3] = float64(rng.Intn(2))              // offering
		f[4] = float64(rng.Intn(3))              // subscription type
		f[5] = float64(rng.Intn(7))              // weekday
		f[6] = float64(rng.Intn(6))              // window
		f[7] = math.Log1p(float64(rng.Intn(40))) // history count
		f[8] = rng.Float64()                     // history mean peak
		f[9] = f[8] * rng.Float64()              // history mean of means
		y := 0.2 + 0.5*f[8] + 0.1*f[9] + 0.05*math.Sin(f[6]) + 0.03*f[3] + 0.02*rng.NormFloat64()
		out[i] = Sample{Features: f, Target: y}
	}
	return out
}
