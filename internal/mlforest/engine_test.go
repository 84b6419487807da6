package mlforest

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// seedEngineMSE is the recorded test MSE of the seed (per-node sorting)
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
	t.Logf("histogram engine MSE %.10f (seed engine recorded %.10f)", got, seedEngineMSE)
	if got > 1.05*seedEngineMSE {
		t.Errorf("histogram engine MSE %v regressed more than 5%% over seed engine's %v", got, seedEngineMSE)
	}
	if got < 0.5*seedEngineMSE {
		t.Errorf("histogram engine MSE %v implausibly below seed engine's %v — suspect target leakage", got, seedEngineMSE)
	}
}

// TestForestByteIdenticalAcrossWorkers is the training-engine counterpart
// of the simulator's worker-count determinism guarantee: the gob encoding
// of the whole forest (every node, leaf value and root) must match byte for byte whichever way the trees were scheduled:
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
	const want = "2331f67753e8ab04b3b030b1b2374dca2db6e2ee9ca85cac00cab0a8ea2cea26"
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
	if len(g.roots) != len(f.roots) || g.nFeat != f.nFeat || g.MemoryBytes() != f.MemoryBytes() {
		t.Error("decoded forest shape differs")
	}
	// Depths are not on the wire: the decoder recomputes them.
	for i := 0; i < len(f.roots); i++ {
		if g.depth[i] != f.depth[i] {
			t.Errorf("tree %d: decoded depth %d, trained %d", i, g.depth[i], f.depth[i])
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
// threshold), per tree an int32 root and an int32 depth.
func TestMemoryBytesArena(t *testing.T) {
	f, err := Train(TraceLikeSamples(300, 23), DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := len(f.nodes)*16 + len(f.roots)*(4+4)
	if got := f.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d (%d nodes, %d trees)", got, want, len(f.nodes), len(f.roots))
	}
	if len(f.depth) != len(f.roots) {
		t.Errorf("%d depths for %d trees", len(f.depth), len(f.roots))
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
	if m.ds.n != len(rows) || m.ds.nFeat != 10 {
		t.Fatalf("matrix shape %dx%d", m.ds.n, m.ds.nFeat)
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
		Nodes:    append([]node(nil), f.nodes...),
		Roots:    append([]int32(nil), f.roots...),
		NFeat:    f.nFeat,
		NSamples: f.nSamples,
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
		m := NewRowMatrix(rows, g.nFeat)
		want := make([]float64, rows)
		row := make([]float64, g.nFeat)
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
	if len(f.roots) != cfg.Trees {
		t.Fatalf("trained %d trees, want %d", len(f.roots), cfg.Trees)
	}
	for i := 0; i < 50; i++ {
		if p := f.Predict(data[i].Features); math.IsNaN(p) {
			t.Fatal("NaN prediction")
		}
	}
}

// TestSplitIsBest holds the histogram sweep to brute force. On small
// random sets mixing low-cardinality features (at most 8 values) with
// all-distinct ones, every internal node splits at a threshold that is a
// training value, scoring within 1e-12 of the best score over every
// (feature, boundary) pair of the node's rows. FeatureFrac 1 makes every
// feature the node's drawn set. A leaf that depth and size would let
// split has no boundary scoring above the engine's 1e-12 floor.
func TestSplitIsBest(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(90)
		rows := make([][]float64, n)
		targets := make([]float64, n)
		for i := range rows {
			rows[i] = []float64{
				float64(rng.Intn(3)),
				float64(rng.Intn(8)) / 2,
				rng.Float64(),
				rng.NormFloat64(),
			}
			targets[i] = rows[i][0] + math.Sin(4*rows[i][2]) + 0.3*rng.NormFloat64()
		}
		ds, err := newDataset(rows)
		if err != nil {
			t.Fatal(err)
		}
		cfg := TreeConfig{MaxDepth: 7, MinLeaf: 1 + int(seed%3), FeatureFrac: 1}
		b := newTreeBuilder(ds, targets, cfg)
		for tree := 0; tree < 4; tree++ {
			ts := treeSeed(seed, tree)
			g := b.grow(ts)
			// The bootstrap, drawn as grow draws it.
			boot := rand.New(rand.NewSource(ts))
			idx := make([]int, n)
			for p := range idx {
				idx[p] = boot.Intn(n)
			}
			c := splitCheck{t: t, g: g, rows: rows, targets: targets, cfg: cfg}
			c.node(0, idx, 0)
		}
	}
}

// splitCheck walks one grown tree, routing the bootstrap rows down it.
type splitCheck struct {
	t       *testing.T
	g       grownTree
	rows    [][]float64
	targets []float64
	cfg     TreeConfig
}

func (c *splitCheck) node(nd int32, idx []int, depth int) {
	best := math.Inf(-1)
	for f := range c.rows[0] {
		vals := make([]float64, 0, len(idx))
		for _, r := range idx {
			vals = append(vals, c.rows[r][f])
		}
		slices.Sort(vals)
		for _, v := range slices.Compact(vals) {
			best = max(best, c.score(idx, f, v))
		}
	}
	f := int(c.g.feature[nd])
	if f < 0 {
		canSplit := depth < c.cfg.MaxDepth && len(idx) >= 2*c.cfg.MinLeaf
		if canSplit && best > 2e-12 {
			c.t.Errorf("leaf at depth %d over %d rows: a boundary scores %g", depth, len(idx), best)
		}
		return
	}
	thr := c.g.threshold[nd]
	var left, right []int
	training := false
	for _, r := range idx {
		training = training || c.rows[r][f] == thr
		if c.rows[r][f] <= thr {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if !training {
		c.t.Errorf("node %d threshold %v is no training value of feature %d in the node", nd, thr, f)
	}
	if got := c.score(idx, f, thr); got < best-1e-12 {
		c.t.Errorf("node %d splits feature %d at %v scoring %.17g; brute force finds %.17g", nd, f, thr, got, best)
	}
	c.node(c.g.left[nd], left, depth+1)
	c.node(c.g.right[nd], right, depth+1)
}

// score is the engine's split score written out over the node's rows:
// the parent's variance less the size-weighted children's, each
// E[t²] − E[t]². A side under MinLeaf rows is no split.
func (c *splitCheck) score(idx []int, f int, thr float64) float64 {
	var n, nl, sum, sq, sumL, sqL float64
	for _, r := range idx {
		y := c.targets[r]
		n, sum, sq = n+1, sum+y, sq+y*y
		if c.rows[r][f] <= thr {
			nl, sumL, sqL = nl+1, sumL+y, sqL+y*y
		}
	}
	nr := n - nl
	if nl < float64(c.cfg.MinLeaf) || nr < float64(c.cfg.MinLeaf) {
		return math.Inf(-1)
	}
	v := func(m, s, q float64) float64 { return q/m - (s/m)*(s/m) }
	return max(v(n, sum, sq), 0) - (nl*v(nl, sumL, sqL)+nr*v(nr, sum-sumL, sq-sqL))/n
}

// TestTrainRejectsUncodableColumns: a feature value's code is its rank
// among the column's distinct values in a uint16, so 65 536 distinct
// values cannot be coded, and NaN has no rank. Both are errors from
// NewMatrix and Train; 65 535 distinct values code as their ranks.
func TestTrainRejectsUncodableColumns(t *testing.T) {
	wide := make([][]float64, maxLevels+1)
	samples := make([]Sample, len(wide))
	for i := range wide {
		wide[i] = []float64{1, float64(len(wide) - i)}
		samples[i] = Sample{Features: wide[i], Target: float64(i % 7)}
	}
	if _, err := NewMatrix(wide); err == nil {
		t.Errorf("NewMatrix accepted %d distinct values", len(wide))
	}
	if _, err := Train(samples, DefaultForestConfig()); err == nil {
		t.Errorf("Train accepted %d distinct values", len(wide))
	}
	nan := [][]float64{{1, 2}, {3, math.NaN()}, {5, 6}}
	if _, err := NewMatrix(nan); err == nil {
		t.Error("NewMatrix accepted a NaN feature")
	}
	if _, err := Train([]Sample{{Features: nan[0]}, {Features: nan[1]}}, DefaultForestConfig()); err == nil {
		t.Error("Train accepted a NaN feature")
	}

	m, err := NewMatrix(wide[1:])
	if err != nil {
		t.Fatalf("%d distinct values: %v", maxLevels, err)
	}
	for f, lv := range m.ds.levels {
		if !slices.IsSorted(lv) {
			t.Fatalf("feature %d levels not ascending", f)
		}
		for r, row := range wide[1:] {
			if got := lv[m.ds.codes[r*2+f]]; got != row[f] {
				t.Fatalf("row %d feature %d: value %v codes to level %v", r, f, row[f], got)
			}
		}
	}
}
