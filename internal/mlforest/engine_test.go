package mlforest

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// seedEngineMSE is the recorded test MSE of the seed (pre-columnar)
// training engine on TraceLikeSamples(3000, 11)/TraceLikeSamples(1000, 12)
// with DefaultForestConfig, measured at commit 60f8501 before the rewrite.
// The parity guard below keeps the rewritten engine's quality within 5%
// of it.
const seedEngineMSE = 0.0006143542

func TestMSEParityWithSeedEngine(t *testing.T) {
	train := TraceLikeSamples(3000, 11)
	test := TraceLikeSamples(1000, 12)
	f, err := Train(train, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := mse(f, test)
	t.Logf("columnar engine MSE %.10f (seed engine recorded %.10f)", got, seedEngineMSE)
	if got > 1.05*seedEngineMSE {
		t.Errorf("columnar engine MSE %v regressed more than 5%% over seed engine's %v", got, seedEngineMSE)
	}
	if got < 0.5*seedEngineMSE {
		t.Errorf("columnar engine MSE %v implausibly below seed engine's %v — suspect target leakage", got, seedEngineMSE)
	}
}

// TestForestByteIdenticalAcrossWorkers is the training-engine counterpart
// of the simulator's worker-count determinism guarantee: the gob encoding
// of the whole forest (every node, leaf value, root and importance sum)
// must match byte for byte whichever way the trees were scheduled:
// serially at GOMAXPROCS 1, on parallel builders above it.
func TestForestByteIdenticalAcrossWorkers(t *testing.T) {
	data := TraceLikeSamples(600, 21)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(workers)
		f, err := Train(data, DefaultForestConfig())
		if err != nil {
			t.Fatal(err)
		}
		enc, err := f.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = enc
			continue
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("forest trained at GOMAXPROCS %d differs from GOMAXPROCS 1", workers)
		}
	}
}

// Gob numbers each type the first time a process encodes it, and the
// numbers are part of the bytes. Encoding a Forest before any test runs
// gives its wire types the same numbers in every run of this test
// binary, so the pinned hash below does not depend on which tests ran
// first.
func init() { _, _ = (&Forest{}).GobEncode() }

// TestForestFingerprint pins the SHA-256 of the default forest's gob
// bytes on the benchmark training set, so "training is unchanged" is a
// check, not a claim: an engine rewrite (the branch-free partition, say)
// must reproduce it bit for bit. A change that means to alter the model
// updates the hash in its own diff. Other architectures may fuse
// multiply-adds and round differently, so the pin holds on amd64 only.
func TestForestFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprint is pinned on amd64, not %s", runtime.GOARCH)
	}
	const want = "76ccf6a37b9f00f31a646a5c8d8b6fa8d12af1745089a351b952a2ff6822fc40"
	f, err := Train(TraceLikeSamples(3000, 11), DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := f.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != want {
		t.Errorf("forest SHA-256 %s, pinned %s", got, want)
	}
}

func TestGobRoundTrip(t *testing.T) {
	data := TraceLikeSamples(200, 22)
	f, err := Train(data, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := f.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var g Forest
	if err := g.GobDecode(enc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		feat := data[i].Features
		if g.Predict(feat) != f.Predict(feat) {
			t.Fatal("decoded forest predicts differently")
		}
	}
	if g.NumTrees() != f.NumTrees() || g.NumFeatures() != f.NumFeatures() || g.MemoryBytes() != f.MemoryBytes() {
		t.Error("decoded forest shape differs")
	}
	// Depths are not on the wire: the decoder recomputes them.
	for i := 0; i < f.NumTrees(); i++ {
		if g.TreeDepth(i) != f.TreeDepth(i) {
			t.Errorf("tree %d: decoded depth %d, trained %d", i, g.TreeDepth(i), f.TreeDepth(i))
		}
	}
	if again, _ := g.GobEncode(); !bytes.Equal(again, enc) {
		t.Error("decoded forest re-encodes to different bytes")
	}
}

// TestThresholdAdjacentFloats is the regression test for the seed engine's
// duplicate-threshold edge: with left value v1 = prevafter(2) and right
// value v2 = 2, the midpoint (v1+v2)/2 rounds to exactly v2, so training
// points that went right at fit time would go left at predict time. The
// engine now splits on <= of the left value instead.
func TestThresholdAdjacentFloats(t *testing.T) {
	v1 := math.Nextafter(2, 1) // largest float64 below 2
	v2 := 2.0
	if mid := (v1 + v2) / 2; mid != v2 {
		t.Fatalf("test premise broken: midpoint %v != right value %v", mid, v2)
	}
	var samples []Sample
	for i := 0; i < 20; i++ {
		samples = append(samples,
			Sample{Features: []float64{v1}, Target: 0},
			Sample{Features: []float64{v2}, Target: 1},
		)
	}
	cfg := ForestConfig{Trees: 5, Tree: TreeConfig{MinLeaf: 1, FeatureFrac: 1}, Seed: 1}
	f, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{v2}); math.Abs(got-1) > 1e-9 {
		t.Errorf("right-side value predicts %v, want 1 (midpoint threshold would leak it left)", got)
	}
	if got := f.Predict([]float64{v1}); math.Abs(got) > 1e-9 {
		t.Errorf("left-side value predicts %v, want 0", got)
	}
}

// TestMemoryBytesArena pins MemoryBytes to the one layout's real
// footprint: per node a 16-byte packed record (a leaf's value is its
// threshold), per tree an int32 root and an int32 depth, per feature a
// float64 importance sum.
func TestMemoryBytesArena(t *testing.T) {
	f, err := Train(TraceLikeSamples(300, 23), DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := f.NumNodes()*16 + f.NumTrees()*(4+4) + f.NumFeatures()*8
	if got := f.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d (%d nodes, %d trees, %d features)",
			got, want, f.NumNodes(), f.NumTrees(), f.NumFeatures())
	}
	if len(f.nodes) != f.NumNodes() || len(f.roots) != f.NumTrees() || len(f.depth) != f.NumTrees() {
		t.Errorf("slabs hold %d nodes / %d roots / %d depths for %d nodes in %d trees",
			len(f.nodes), len(f.roots), len(f.depth), f.NumNodes(), f.NumTrees())
	}
}

// TestTrainOnMatrixEquivalence pins the documented guarantee that Train
// and NewMatrix+TrainOnMatrix produce byte-identical forests, and that
// one matrix serves two target vectors independently.
func TestTrainOnMatrixEquivalence(t *testing.T) {
	data := TraceLikeSamples(500, 25)
	rows := make([][]float64, len(data))
	targets := make([]float64, len(data))
	alt := make([]float64, len(data))
	for i, s := range data {
		rows[i] = s.Features
		targets[i] = s.Target
		alt[i] = s.Target * 2
	}
	want, err := Train(data, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != len(rows) || m.NumFeatures() != 10 {
		t.Fatalf("matrix shape %dx%d", m.NumRows(), m.NumFeatures())
	}
	got, err := TrainOnMatrix(m, targets, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, _ := want.GobEncode()
	gotEnc, _ := got.GobEncode()
	if !bytes.Equal(wantEnc, gotEnc) {
		t.Fatal("TrainOnMatrix differs from Train on identical rows/targets")
	}
	// The same matrix must train a second, different forest untouched by
	// the first (the dataset is read-only during growth).
	other, err := TrainOnMatrix(m, alt, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p, q := got.Predict(rows[0]), other.Predict(rows[0]); p == q {
		t.Errorf("doubled targets trained an identical forest (both predict %v)", p)
	}
	again, err := TrainOnMatrix(m, targets, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	againEnc, _ := again.GobEncode()
	if !bytes.Equal(againEnc, wantEnc) {
		t.Fatal("matrix reuse changed a retrained forest — growth mutated the dataset")
	}

	if _, err := NewMatrix(nil); err == nil {
		t.Error("empty matrix must fail")
	}
	if _, err := NewMatrix([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged matrix must fail")
	}
	if _, err := TrainOnMatrix(m, targets[:10], DefaultForestConfig()); err == nil {
		t.Error("target/row length mismatch must fail")
	}
}

// wireOf copies a forest into its wire form for the corruption tests.
func wireOf(f *Forest) forestWire {
	return forestWire{
		Nodes:      append([]node(nil), f.nodes...),
		Roots:      append([]int32(nil), f.roots...),
		Importance: append([]float64(nil), f.importance...),
		NFeat:      f.nFeat,
		NSamples:   f.nSamples,
	}
}

// TestGobDecodeRejectsCorruptArena checks, one invariant per row, that a
// payload on which Predict or PredictMatrix could index out of range or
// spin fails at decode time.
func TestGobDecodeRejectsCorruptArena(t *testing.T) {
	f, err := Train(TraceLikeSamples(100, 26), DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The first tree's root splits (TraceLikeSamples always has signal),
	// and its last node, like any block's, is a leaf.
	if f.nodes[0].Lo == 0 {
		t.Fatal("fixture regression: first tree is a single leaf")
	}
	leaf := f.roots[1] - 1
	for _, tc := range []struct {
		name   string
		mutate func(*forestWire)
	}{
		{"empty forest", func(w *forestWire) { w.Nodes, w.Roots = nil, nil }},
		{"importance length mismatch", func(w *forestWire) { w.Importance = w.Importance[:1] }},
		{"first root not 0", func(w *forestWire) { w.Roots[0] = 1 }},
		{"roots not ascending", func(w *forestWire) { w.Roots[2] = w.Roots[1] }},
		{"root outside slab", func(w *forestWire) { w.Roots[len(w.Roots)-1] = int32(len(w.Nodes)) }},
		{"child link backward", func(w *forestWire) { w.Nodes[f.roots[1]].Lo = f.roots[1] - 1 }},
		{"right child outside its tree block", func(w *forestWire) { w.Nodes[0].Lo = f.roots[1] - 1 }},
		{"child link overflows", func(w *forestWire) { w.Nodes[0].Lo = math.MaxInt32 }},
		{"leaf reading a real feature", func(w *forestWire) { w.Nodes[leaf].Feat = 0 }},
		{"leaf reading past the pad column", func(w *forestWire) { w.Nodes[leaf].Feat = int32(w.NFeat) + 1 }},
		{"negative leaf feature", func(w *forestWire) { w.Nodes[leaf].Feat = -1 }},
		{"internal node reading the pad column", func(w *forestWire) { w.Nodes[0].Feat = int32(w.NFeat) }},
		{"feature beyond dimensionality", func(w *forestWire) { w.Nodes[0].Feat = int32(w.NFeat) + 1 }},
		{"negative feature", func(w *forestWire) { w.Nodes[0].Feat = -1 }},
	} {
		w := wireOf(f)
		tc.mutate(&w)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		var g Forest
		if err := g.GobDecode(buf.Bytes()); err == nil {
			t.Errorf("%s: corrupt payload decoded without error", tc.name)
		}
	}
	// Unmutated, the same wire form decodes: the rows above fail for their
	// mutation, not for the harness.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wireOf(f)); err != nil {
		t.Fatal(err)
	}
	if err := new(Forest).GobDecode(buf.Bytes()); err != nil {
		t.Fatalf("valid wire form rejected: %v", err)
	}
}

// FuzzForestGobDecode mutates valid payloads: whatever the bytes, decoding
// either fails or yields a forest on which both inference schedules
// terminate in bounds and agree bit for bit.
func FuzzForestGobDecode(f *testing.F) {
	cfg := ForestConfig{Trees: 3, Tree: TreeConfig{MaxDepth: 4, MinLeaf: 2, FeatureFrac: 1}, Seed: 1}
	forest, err := Train(TraceLikeSamples(60, 27), cfg)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := forest.GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 64; i++ {
		mut := append([]byte(nil), enc...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Forest
		if g.GobDecode(data) != nil {
			return
		}
		const rows = 9
		rng := rand.New(rand.NewSource(29))
		m := NewRowMatrix(rows, g.NumFeatures())
		want := make([]float64, rows)
		row := make([]float64, g.NumFeatures())
		for r := range want {
			for c := range row {
				row[c] = 20 * rng.NormFloat64()
			}
			m.SetRow(r, row)
			want[r] = g.Predict(row)
		}
		for r, got := range g.PredictMatrix(m, nil) {
			if math.Float64bits(got) != math.Float64bits(want[r]) && !(math.IsNaN(got) && math.IsNaN(want[r])) {
				t.Fatalf("row %d: matrix %v != walk %v on a decoded payload", r, got, want[r])
			}
		}
	})
}

// TestWorkersIgnoredByQuality sanity-checks that parallel training trains
// the same number of usable trees (every root reachable, every walk
// terminating) by predicting through a forest trained on eight builders.
func TestWorkersIgnoredByQuality(t *testing.T) {
	data := TraceLikeSamples(400, 24)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	cfg := DefaultForestConfig()
	f, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != cfg.Trees {
		t.Fatalf("trained %d trees, want %d", f.NumTrees(), cfg.Trees)
	}
	for i := 0; i < 50; i++ {
		if p := f.Predict(data[i].Features); math.IsNaN(p) {
			t.Fatal("NaN prediction")
		}
	}
}
