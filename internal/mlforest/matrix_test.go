package mlforest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
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

// sweepValues picks up to max strictly ascending values for sweeping feat
// that meet the trees' thresholds on it every way a value can: equal to
// one, just either side of one, and beyond all of them.
func (o oracle) sweepValues(rng *rand.Rand, feat, max int) []float64 {
	vals := []float64{-1e9, 1e9, rng.NormFloat64()}
	for i := range o {
		for n, f := range o[i].feature {
			if int(f) == feat {
				thr := o[i].threshold[n]
				vals = append(vals, thr, math.Nextafter(thr, math.Inf(1)), math.Nextafter(thr, math.Inf(-1)))
			}
		}
	}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	vals = vals[:min(len(vals), max)]
	slices.Sort(vals)
	return slices.Compact(vals)
}

// checkSweep holds PredictSweep of feat over vals to the oracle: every
// (row, value) cell must equal, bit for bit, the oracle's walk of that row
// with the value substituted.
func checkSweep(t *testing.T, ref oracle, f *Forest, rows [][]float64, feat int, vals []float64) {
	t.Helper()
	m, err := NewRowMatrixFrom(rows)
	if err != nil {
		t.Fatal(err)
	}
	got := f.PredictSweep(m, feat, vals, nil)
	if len(got) != len(rows)*len(vals) {
		t.Fatalf("sweep of %d rows x %d values returned %d cells", len(rows), len(vals), len(got))
	}
	sub := make([]float64, len(rows[0]))
	for r, row := range rows {
		copy(sub, row)
		for w, v := range vals {
			sub[feat] = v
			if want := ref.predict(sub); math.Float64bits(got[r*len(vals)+w]) != math.Float64bits(want) {
				t.Fatalf("rows=%d feat=%d vals=%v: cell (%d,%d) = %v, oracle %v",
					len(rows), feat, vals, r, w, got[r*len(vals)+w], want)
			}
		}
	}
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
	ds, err := newDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
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
		m := NewRowMatrix(n, f.nFeat)
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

	// The sweep is held to the same oracle: the trained forest and random
	// arenas, every feature swept (feature 0 is also every leaf's), 1-8
	// values, at batch sizes either side of the tree-block boundary.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		ref, forest := trees, f
		if trial > 0 {
			ref, forest = randomArena(rng, 1+rng.Intn(48), 1+rng.Intn(6), 1+rng.Intn(9))
		}
		for _, n := range []int{1, 7, 64, 300} {
			rows := make([][]float64, n)
			for r := range rows {
				rows[r] = make([]float64, forest.nFeat)
				for c := range rows[r] {
					rows[r][c] = rng.NormFloat64()
				}
				if trial == 0 {
					copy(rows[r], pool[r%len(pool)].Features)
				}
			}
			for feat := 0; feat < forest.nFeat; feat++ {
				checkSweep(t, ref, forest, rows, feat, ref.sweepValues(rng, feat, 1+rng.Intn(8)))
			}
		}
	}
}

// TestPredictSweepMatchesExpandedMatrix pins the sweep to the matrix it
// stands for on a trained forest: rows x values cells equal PredictMatrix
// over the rows x values matrix with the swept column written out.
func TestPredictSweepMatchesExpandedMatrix(t *testing.T) {
	f, err := Train(TraceLikeSamples(600, 31), DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := TraceLikeSamples(64, 32)
	vals := []float64{0, 1, 2, 3, 4, 5}
	for feat := 0; feat < f.nFeat; feat++ {
		m := NewRowMatrix(len(pool), f.nFeat)
		wide := NewRowMatrix(len(pool)*len(vals), f.nFeat)
		for r, s := range pool {
			m.SetRow(r, s.Features)
			for w, v := range vals {
				wide.SetRow(r*len(vals)+w, s.Features)
				wide.data[feat*wide.rows+r*len(vals)+w] = v
			}
		}
		before := f.Stats()
		got := f.PredictSweep(m, feat, vals, nil)
		st := f.Stats()
		if st.Passes-before.Passes != 1 || st.Rows-before.Rows != int64(len(got)) {
			t.Fatalf("one sweep counted %d passes / %d rows, want 1 / %d", st.Passes-before.Passes, st.Rows-before.Rows, len(got))
		}
		// A lane per (row, tree) at least, one per cell and tree at most.
		if lanes, walks := st.Lanes-before.Lanes, int64(len(pool)*len(f.roots)); lanes < walks || lanes > walks*int64(len(vals)) {
			t.Fatalf("feat %d: %d lanes for %d (row, tree) walks of %d values", feat, lanes, walks, len(vals))
		}
		if want := f.PredictMatrix(wide, nil); !bytes.Equal(gobBytes(t, got), gobBytes(t, want)) {
			t.Fatalf("feat %d: PredictSweep diverges from PredictMatrix over the expanded matrix", feat)
		}
	}
	if st := f.Stats(); st.MismatchedRows != 0 {
		t.Fatalf("stats %+v: want no mismatches", st)
	}
}

// TestPredictSweepRejectsBadValues: values the parting cannot keep as
// contiguous ranges are a caller bug and panic; a swept feature the forest
// does not have is a schema mismatch and counts like a wrong-width matrix.
func TestPredictSweepRejectsBadValues(t *testing.T) {
	f, err := Train(linearData(60, 11), DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := NewRowMatrix(3, f.nFeat)
	ramp := make([]float64, 256)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	for name, vals := range map[string][]float64{
		"empty":      {},
		"descending": {2, 1},
		"repeated":   {1, 1},
		"nan alone":  {math.NaN()},
		"nan inside": {0, math.NaN(), 2},
		"nan last":   {0, math.NaN()},
		"256 values": ramp,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: PredictSweep did not panic", name)
				}
			}()
			f.PredictSweep(m, 0, vals, nil)
		}()
	}
	if s := f.Stats(); s.Passes != 0 {
		t.Fatalf("rejected sweeps counted as passes: %+v", s)
	}

	out := f.PredictSweep(m, f.nFeat, []float64{0, 1}, nil)
	for c, v := range out {
		if v != 0 {
			t.Errorf("sweep of a missing feature predicted %v in cell %d, want 0", v, c)
		}
	}
	if s := f.Stats(); s.Passes != 1 || s.Rows != 6 || s.MismatchedRows != 6 {
		t.Errorf("sweep of a missing feature counted %+v, want 1 pass / 6 rows / 6 mismatched", s)
	}
	if got := f.PredictSweep(m, 0, ramp[:255], nil); len(got) != 3*255 {
		t.Errorf("255 values returned %d cells", len(got))
	}
}

// TestPredictSweepSteadyStateAllocs: with a matching out buffer the pooled
// scratch makes a sweep allocation-free, at one row and at a batch.
func TestPredictSweepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under -race")
	}
	f, err := Train(TraceLikeSamples(600, 31), DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := TraceLikeSamples(64, 32)
	vals := []float64{0, 1, 2, 3, 4, 5}
	for _, n := range []int{1, 64} {
		m := NewRowMatrix(n, f.nFeat)
		for r := 0; r < n; r++ {
			m.SetRow(r, pool[r].Features)
		}
		out := make([]float64, n*len(vals))
		if allocs := testing.AllocsPerRun(50, func() { f.PredictSweep(m, 6, vals, out) }); allocs != 0 {
			t.Errorf("rows=%d: %v allocations per sweep, want 0", n, allocs)
		}
		single := make([]float64, n)
		if allocs := testing.AllocsPerRun(50, func() { f.PredictMatrix(m, single) }); allocs != 0 {
			t.Errorf("rows=%d: %v allocations per PredictMatrix, want 0", n, allocs)
		}
	}
}

// TestPredictSweepConcurrent sweeps one forest from 8 goroutines (run
// under -race in CI): the pooled scratch must never be shared.
func TestPredictSweepConcurrent(t *testing.T) {
	f, err := Train(TraceLikeSamples(600, 31), DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := TraceLikeSamples(64, 32)
	vals := []float64{0, 1, 2, 3, 4, 5}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 1 + 9*g
			m := NewRowMatrix(n, f.nFeat)
			for r := 0; r < n; r++ {
				m.SetRow(r, pool[r].Features)
			}
			want := f.PredictSweep(m, 6, vals, nil)
			for i := 0; i < 20; i++ {
				if got := f.PredictSweep(m, 6, vals, nil); !slices.Equal(got, want) {
					t.Errorf("goroutine %d: sweep %d differs from its first", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
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
		all := make([][]float64, n)
		for r := 0; r < n; r++ {
			row := make([]float64, nf)
			for c := range row {
				row[c] = rng.NormFloat64()
			}
			all[r] = row
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
		for feat := 0; feat < nf; feat++ {
			checkSweep(t, ref, forest, all, feat, ref.sweepValues(rng, feat, 1+rng.Intn(8)))
		}
		for i := range ref {
			if got, want := int(forest.depth[i]), ref.depth(i, 0); got != want {
				t.Fatalf("tree %d: stored depth %d, oracle depth %d", i, got, want)
			}
		}
	})
}

// NewRowMatrixFrom builds a matrix from row-major feature vectors.
func NewRowMatrixFrom(rows [][]float64) (*RowMatrix, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("mlforest: empty row matrix")
	}
	nFeat := len(rows[0])
	m := NewRowMatrix(len(rows), nFeat)
	for r, row := range rows {
		if len(row) != nFeat {
			return nil, fmt.Errorf("mlforest: row %d has %d features, want %d", r, len(row), nFeat)
		}
		m.SetRow(r, row)
	}
	return m, nil
}
