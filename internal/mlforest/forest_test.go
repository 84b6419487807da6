package mlforest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// linearData builds samples with target = 2*x0 + noise and one noise
// feature x1.
func linearData(n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		x0 := rng.Float64()
		x1 := rng.Float64()
		out[i] = Sample{Features: []float64{x0, x1}, Target: 2*x0 + 0.05*rng.NormFloat64()}
	}
	return out
}

// mse is the mean squared error of the forest on a sample set.
func mse(f *Forest, samples []Sample) float64 {
	var sum float64
	for _, s := range samples {
		d := f.Predict(s.Features) - s.Target
		sum += d * d
	}
	return sum / float64(len(samples))
}

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(nil, DefaultForestConfig()); err == nil {
		t.Error("empty training set must fail")
	}
	if _, err := Train([]Sample{{Features: nil, Target: 1}}, DefaultForestConfig()); err == nil {
		t.Error("featureless samples must fail")
	}
	ragged := []Sample{
		{Features: []float64{1, 2}, Target: 1},
		{Features: []float64{1}, Target: 2},
	}
	if _, err := Train(ragged, DefaultForestConfig()); err == nil {
		t.Error("ragged features must fail")
	}
	cfg := DefaultForestConfig()
	cfg.Trees = 0
	if _, err := Train(linearData(10, 1), cfg); err == nil {
		t.Error("zero trees must fail")
	}
}

func TestForestLearnsLinearSignal(t *testing.T) {
	train := linearData(400, 1)
	test := linearData(100, 2)
	f, err := Train(train, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := mse(f, test)

	// Baseline: predicting the training mean.
	var mean float64
	for _, s := range train {
		mean += s.Target
	}
	mean /= float64(len(train))
	var baseMSE float64
	for _, s := range test {
		d := s.Target - mean
		baseMSE += d * d
	}
	baseMSE /= float64(len(test))

	if got >= baseMSE/4 {
		t.Errorf("forest MSE %v not substantially better than mean baseline %v", got, baseMSE)
	}
}

func TestForestConstantTarget(t *testing.T) {
	samples := make([]Sample, 50)
	for i := range samples {
		samples[i] = Sample{Features: []float64{float64(i), float64(i % 3)}, Target: 7}
	}
	f, err := Train(samples, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{25, 1}); math.Abs(got-7) > 1e-9 {
		t.Errorf("constant-target forest predicts %v, want 7", got)
	}
}

func TestForestDeterministic(t *testing.T) {
	data := linearData(100, 3)
	a, _ := Train(data, DefaultForestConfig())
	b, _ := Train(data, DefaultForestConfig())
	for i := 0; i < 20; i++ {
		feat := []float64{float64(i) / 20, 0.5}
		if a.Predict(feat) != b.Predict(feat) {
			t.Fatal("same seed must give identical forests")
		}
	}
}

func TestForestSeedChangesModel(t *testing.T) {
	data := linearData(100, 3)
	cfgA := DefaultForestConfig()
	cfgB := DefaultForestConfig()
	cfgB.Seed = 999
	a, _ := Train(data, cfgA)
	b, _ := Train(data, cfgB)
	same := true
	for i := 0; i < 20 && same; i++ {
		feat := []float64{float64(i) / 20, 0.5}
		if a.Predict(feat) != b.Predict(feat) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical forests (suspicious)")
	}
}

// Property: predictions stay within the range of training targets
// (tree leaves are means of training subsets).
func TestPredictionWithinTargetRangeProperty(t *testing.T) {
	data := linearData(200, 4)
	f, err := Train(data, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range data {
		lo = math.Min(lo, s.Target)
		hi = math.Max(hi, s.Target)
	}
	prop := func(x0, x1 float64) bool {
		p := f.Predict([]float64{math.Mod(math.Abs(x0), 2), math.Mod(math.Abs(x1), 2)})
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	cfg := ForestConfig{Trees: 3, Tree: TreeConfig{MaxDepth: 2, MinLeaf: 1, FeatureFrac: 1}, Seed: 1}
	f, err := Train(linearData(200, 6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(f.roots); i++ {
		if d := f.depth[i]; d > 2 {
			t.Errorf("tree %d depth %d exceeds MaxDepth 2", i, d)
		}
	}
}

func TestPredictWrongDimension(t *testing.T) {
	f, _ := Train(linearData(50, 7), DefaultForestConfig())
	if got := f.Predict([]float64{1}); got != 0 {
		t.Errorf("wrong-dimension predict = %v, want 0", got)
	}
}

func TestAccessors(t *testing.T) {
	f, _ := Train(linearData(50, 8), DefaultForestConfig())
	if len(f.roots) != 40 {
		t.Errorf("%d trees, want 40", len(f.roots))
	}
	if f.nFeat != 2 {
		t.Errorf("%d features, want 2", f.nFeat)
	}
	if f.MemoryBytes() <= 0 {
		t.Error("MemoryBytes must be positive")
	}
}

func TestTreeSingleLeaf(t *testing.T) {
	// Two identical samples cannot be split.
	samples := []Sample{
		{Features: []float64{1}, Target: 5},
		{Features: []float64{1}, Target: 5},
	}
	f, err := Train(samples, ForestConfig{Trees: 1, Tree: TreeConfig{MinLeaf: 1, FeatureFrac: 1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.depth[0] != 0 {
		t.Errorf("unsplittable data produced depth %d", f.depth[0])
	}
	if got := f.Predict([]float64{1}); got != 5 {
		t.Errorf("predict = %v", got)
	}
}

func TestStepFunctionLearned(t *testing.T) {
	// Target is a step at x=0.5: trees should capture it crisply.
	var samples []Sample
	for i := 0; i < 200; i++ {
		x := float64(i) / 200
		y := 0.0
		if x >= 0.5 {
			y = 1
		}
		samples = append(samples, Sample{Features: []float64{x}, Target: y})
	}
	f, err := Train(samples, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{0.25}); got > 0.2 {
		t.Errorf("left of step predicts %v", got)
	}
	if got := f.Predict([]float64{0.75}); got < 0.8 {
		t.Errorf("right of step predicts %v", got)
	}
}
