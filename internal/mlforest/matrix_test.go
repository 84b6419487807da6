package mlforest

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

// gobBytes serializes predictions for byte-level comparison: the
// equivalence wall requires the two inference paths to agree bit for bit,
// not merely within a tolerance.
func gobBytes(t *testing.T, v []float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracle is the independent reference both inference schedules are checked
// against: the trees exactly as the trainer grows them — pre-order,
// tree-local child links, leaves marked by feature -1 — walked by pointer
// with the training-time rule (left when x <= threshold). It shares no
// code with flatten's breadth-first relabelling, so the one layout is
// never checked only against itself.
type oracle []grownTree

func (o oracle) predict(row []float64) float64 {
	var sum float64
	for i := range o {
		t, n := &o[i], int32(0)
		for t.feature[n] >= 0 {
			if row[t.feature[n]] <= t.threshold[n] {
				n = t.left[n]
			} else {
				n = t.right[n]
			}
		}
		sum += t.value[n]
	}
	return sum / float64(len(o))
}

// depth is the height of tree t's subtree at node n.
func (o oracle) depth(t int, n int32) int {
	if o[t].feature[n] < 0 {
		return 0
	}
	return 1 + max(o.depth(t, o[t].left[n]), o.depth(t, o[t].right[n]))
}

// growTrees grows cfg's trees serially, as trainOn does, and keeps them
// for the oracle alongside the forest flatten makes of them.
func growTrees(t *testing.T, samples []Sample, cfg ForestConfig) (oracle, *Forest) {
	t.Helper()
	rows := make([][]float64, len(samples))
	targets := make([]float64, len(samples))
	for i, s := range samples {
		rows[i], targets[i] = s.Features, s.Target
	}
	ds := newDataset(rows)
	b := newTreeBuilder(ds, targets, cfg.Tree)
	trees := make(oracle, cfg.Trees)
	for i := range trees {
		trees[i] = b.grow(treeSeed(cfg.Seed, i))
	}
	return trees, flatten(trees, ds.nFeat, ds.n)
}

// TestPredictMatrixMatchesPredict is the mlforest half of the equivalence
// wall: the row walk and the level-synchronous pass must both be
// byte-identical to the oracle's pointer walk at every required batch
// size, on the forest Train itself returns.
func TestPredictMatrixMatchesPredict(t *testing.T) {
	samples := TraceLikeSamples(600, 31)
	trees, grown := growTrees(t, samples, DefaultForestConfig())
	f, err := Train(samples, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	fEnc, _ := f.GobEncode()
	grownEnc, _ := grown.GobEncode()
	if !bytes.Equal(fEnc, grownEnc) {
		t.Fatal("growTrees no longer mirrors Train: the oracle's trees are not the forest's")
	}
	pool := TraceLikeSamples(512, 32)
	for _, n := range []int{1, 7, 64, 4096} {
		m := NewRowMatrix(n, f.NumFeatures())
		want := make([]float64, n)
		walk := make([]float64, n)
		for r := 0; r < n; r++ {
			feats := pool[r%len(pool)].Features
			m.SetRow(r, feats)
			want[r] = trees.predict(feats)
			walk[r] = f.Predict(feats)
		}
		if !bytes.Equal(gobBytes(t, walk), gobBytes(t, want)) {
			t.Fatalf("batch %d: Predict diverges from the oracle", n)
		}
		got := f.PredictMatrix(m, nil)
		if !bytes.Equal(gobBytes(t, got), gobBytes(t, want)) {
			t.Fatalf("batch %d: PredictMatrix diverges from the oracle", n)
		}
		// Reusing the output buffer must overwrite, not accumulate.
		again := f.PredictMatrix(m, got)
		if !bytes.Equal(gobBytes(t, again), gobBytes(t, want)) {
			t.Fatalf("batch %d: reused output buffer diverges", n)
		}
	}
}

// TestPredictMatrixSingleLeafTree covers the depth-0 edge: a tree that
// never split runs zero level steps and must still land on its leaf.
func TestPredictMatrixSingleLeafTree(t *testing.T) {
	samples := []Sample{
		{Features: []float64{1}, Target: 5},
		{Features: []float64{1}, Target: 5},
	}
	f, err := Train(samples, ForestConfig{Trees: 2, Tree: TreeConfig{MinLeaf: 1, FeatureFrac: 1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := NewRowMatrix(3, 1)
	for r := 0; r < 3; r++ {
		m.SetRow(r, []float64{float64(r)})
	}
	out := f.PredictMatrix(m, nil)
	for r, got := range out {
		if got != 5 {
			t.Errorf("row %d: single-leaf forest predicted %v, want 5", r, got)
		}
	}
}

// TestMismatchedRowsCounted pins the satellite fix: dimension-mismatched
// inputs still predict 0, but no longer silently — every such row counts
// in Stats().MismatchedRows on both inference paths.
func TestMismatchedRowsCounted(t *testing.T) {
	f, err := Train(linearData(60, 11), DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.Passes != 0 || s.Rows != 0 || s.MismatchedRows != 0 {
		t.Fatalf("fresh forest has nonzero stats %+v", s)
	}

	if got := f.Predict([]float64{1}); got != 0 {
		t.Errorf("wrong-dimension Predict = %v, want 0", got)
	}
	f.Predict([]float64{0.5, 0.5})
	m := NewRowMatrix(5, 3) // wrong dimensionality: whole matrix rejected
	out := f.PredictMatrix(m, nil)
	for r, v := range out {
		if v != 0 {
			t.Errorf("mismatched matrix row %d predicted %v, want 0", r, v)
		}
	}

	// Predict(bad) = 1 pass/1 row/1 mismatch, Predict(good) = 1 pass/1
	// row, matrix = 1 pass/5 rows/5 mismatches.
	s := f.Stats()
	if s.MismatchedRows != 1+5 {
		t.Errorf("MismatchedRows = %d, want 6", s.MismatchedRows)
	}
	if s.Passes != 3 {
		t.Errorf("Passes = %d, want 3", s.Passes)
	}
	if s.Rows != 1+1+5 {
		t.Errorf("Rows = %d, want 7", s.Rows)
	}
}

// randomArena hand-builds structurally valid grown trees (no training) —
// random shapes, thresholds and leaf values, exercising layouts the
// trainer would rarely produce — and flattens them.
func randomArena(rng *rand.Rand, trees, nFeat, maxDepth int) (oracle, *Forest) {
	o := make(oracle, trees)
	for i := range o {
		t := &o[i]
		t.importance = make([]float64, nFeat)
		var build func(depth int) int32
		build = func(depth int) int32 {
			n := int32(len(t.feature))
			t.left = append(t.left, 0)
			t.right = append(t.right, 0)
			if depth >= maxDepth || rng.Float64() < 0.3 {
				t.feature = append(t.feature, -1)
				t.threshold = append(t.threshold, 0)
				t.value = append(t.value, rng.NormFloat64())
				return n
			}
			t.feature = append(t.feature, int32(rng.Intn(nFeat)))
			t.threshold = append(t.threshold, rng.NormFloat64())
			t.value = append(t.value, 0)
			l := build(depth + 1)
			r := build(depth + 1)
			t.left[n], t.right[n] = l, r
			return n
		}
		build(0)
	}
	return o, flatten(o, nFeat, 0)
}

// FuzzPredictMatrixEquivalence fuzzes random trees and random inputs:
// whatever the tree shapes, both schedules must take every row to the leaf
// the oracle's pointer walk reaches and produce bit-identical ensemble
// means.
func FuzzPredictMatrixEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(4), uint8(9))
	f.Add(int64(42), uint8(1), uint8(1), uint8(0), uint8(1))
	f.Add(int64(7), uint8(8), uint8(4), uint8(6), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, trees, nFeat, maxDepth, rows uint8) {
		nt := int(trees)%8 + 1
		nf := int(nFeat)%6 + 1
		md := int(maxDepth) % 8
		n := int(rows)%70 + 1
		rng := rand.New(rand.NewSource(seed))
		ref, forest := randomArena(rng, nt, nf, md)

		m := NewRowMatrix(n, nf)
		want := make([]float64, n)
		row := make([]float64, nf)
		for r := 0; r < n; r++ {
			for c := range row {
				row[c] = rng.NormFloat64()
			}
			m.SetRow(r, row)
			want[r] = ref.predict(row)
			if got := forest.Predict(row); math.Float64bits(got) != math.Float64bits(want[r]) {
				t.Fatalf("row %d: walk %v != oracle %v (trees=%d feat=%d depth=%d)",
					r, got, want[r], nt, nf, md)
			}
		}
		got := forest.PredictMatrix(m, nil)
		for r := range want {
			if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
				t.Fatalf("row %d: matrix %v != oracle %v (trees=%d feat=%d depth=%d)",
					r, got[r], want[r], nt, nf, md)
			}
		}
		for i := range ref {
			if got, want := forest.TreeDepth(i), ref.depth(i, 0); got != want {
				t.Fatalf("tree %d: stored depth %d, oracle depth %d", i, got, want)
			}
		}
	})
}
