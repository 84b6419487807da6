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

// TestPredictMatrixMatchesPredict is the mlforest half of the equivalence
// wall: level-synchronous inference must be byte-identical to the per-row
// pointer walk at every required batch size.
func TestPredictMatrixMatchesPredict(t *testing.T) {
	f, err := Train(TraceLikeSamples(600, 31), DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := TraceLikeSamples(512, 32)
	for _, n := range []int{1, 7, 64, 4096} {
		m := NewRowMatrix(n, f.NumFeatures())
		want := make([]float64, n)
		for r := 0; r < n; r++ {
			feats := pool[r%len(pool)].Features
			m.SetRow(r, feats)
			want[r] = f.Predict(feats)
		}
		got := f.PredictMatrix(m, nil)
		if !bytes.Equal(gobBytes(t, got), gobBytes(t, want)) {
			t.Fatalf("batch %d: PredictMatrix diverges from Predict", n)
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

// randomArena hand-builds a structurally valid DFS arena (no training):
// random tree shapes, thresholds and leaf values, exercising layouts the
// trainer would rarely produce.
func randomArena(rng *rand.Rand, trees, nFeat, maxDepth int) *Forest {
	f := &Forest{nFeat: nFeat, importance: make([]float64, nFeat)}
	var build func(depth int)
	build = func(depth int) {
		i := int32(len(f.feature))
		if depth >= maxDepth || rng.Float64() < 0.3 {
			f.feature = append(f.feature, -1)
			f.threshold = append(f.threshold, 0)
			f.left = append(f.left, 0)
			f.right = append(f.right, 0)
			f.value = append(f.value, rng.NormFloat64())
			return
		}
		f.feature = append(f.feature, int32(rng.Intn(nFeat)))
		f.threshold = append(f.threshold, rng.NormFloat64())
		f.left = append(f.left, 0)
		f.right = append(f.right, 0)
		f.value = append(f.value, 0)
		f.left[i] = int32(len(f.feature))
		build(depth + 1)
		f.right[i] = int32(len(f.feature))
		build(depth + 1)
	}
	for t := 0; t < trees; t++ {
		f.roots = append(f.roots, int32(len(f.feature)))
		build(0)
	}
	f.buildBFS()
	return f
}

// FuzzPredictMatrixEquivalence fuzzes random arenas and random inputs:
// whatever the tree shapes, both layouts must walk every row to the same
// leaf and produce bit-identical ensemble means.
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
		forest := randomArena(rng, nt, nf, md)

		m := NewRowMatrix(n, nf)
		want := make([]float64, n)
		row := make([]float64, nf)
		for r := 0; r < n; r++ {
			for c := range row {
				row[c] = rng.NormFloat64()
			}
			m.SetRow(r, row)
			want[r] = forest.Predict(row)
		}
		got := forest.PredictMatrix(m, nil)
		for r := range want {
			if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
				t.Fatalf("row %d: matrix %v != walk %v (trees=%d feat=%d depth=%d)",
					r, got[r], want[r], nt, nf, md)
			}
		}
	})
}
