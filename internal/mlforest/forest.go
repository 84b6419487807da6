package mlforest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ForestConfig configures a bagged random forest.
type ForestConfig struct {
	// Trees is the ensemble size.
	Trees int
	// Tree bounds each member tree.
	Tree TreeConfig
	// Seed makes training deterministic.
	Seed int64
	// Workers bounds how many trees are grown concurrently. 0 (the
	// default) uses runtime.GOMAXPROCS(0); 1 trains serially. Each tree's
	// RNG derives from (Seed, tree index), so the trained forest is
	// byte-identical for any value — Workers is a throughput knob, never
	// part of the model's identity.
	Workers int
}

// DefaultForestConfig mirrors a small production-style regressor: 40 trees,
// depth 12, sqrt-ish feature sampling.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{
		Trees: 40,
		Tree:  TreeConfig{MaxDepth: 12, MinLeaf: 2, FeatureFrac: 0.6},
		Seed:  1,
	}
}

// Forest is a trained random forest regressor. The ensemble is stored as
// one contiguous structure-of-arrays node arena: trees are concatenated in
// training order (tree t's nodes occupy [roots[t], end of its block)) and
// child links are arena-absolute, so prediction walks dense slices instead
// of per-tree pointer-chased node arrays. Leaves have feature == -1.
type Forest struct {
	feature     []int32
	threshold   []float64
	left, right []int32
	value       []float64
	roots       []int32 // arena index of each tree's root

	// importance holds per-feature total variance reduction summed over
	// trees in tree order (raw, unnormalized).
	importance []float64

	// Level-synchronous mirror of the arena (matrix.go): the same trees
	// relabeled breadth-first into compact 16-byte nodes with leaves as
	// self-looping sentinels, built once by buildBFS after training or
	// decoding and never serialized. Leaf values live in their own slab,
	// read once per (tree, row), so they never dilute the hot node lines.
	bfsNodes []bfsNode
	bfsVal   []float64
	bfsRoots []int32
	bfsDepth []int32 // per-tree max depth = PredictMatrix level count

	nFeat    int
	nSamples int

	// Inference counters, see Stats.
	passes, rowsIn, mismatched atomic.Int64

	// scratch pools PredictMatrix row frontiers.
	scratch sync.Pool
}

// Stats is a snapshot of a forest's inference counters.
type Stats struct {
	// Passes counts inference calls: Predict and PredictMatrix each add
	// one regardless of batch size, so a caller batching K candidates
	// into one matrix is distinguishable from one looping K single-row
	// predictions.
	Passes int64
	// Rows counts feature rows submitted across all passes.
	Rows int64
	// MismatchedRows counts rows rejected for feature-dimension mismatch.
	// Such rows predict 0 without consulting the ensemble; a nonzero count
	// means a feature-schema bug upstream that would otherwise masquerade
	// as a confident zero-utilization prediction.
	MismatchedRows int64
}

// Stats returns a snapshot of the forest's inference counters. Counters
// are cumulative since training or decoding and safe to read concurrently
// with predictions.
func (f *Forest) Stats() Stats {
	return Stats{
		Passes:         f.passes.Load(),
		Rows:           f.rowsIn.Load(),
		MismatchedRows: f.mismatched.Load(),
	}
}

// Train fits a forest with bootstrap bagging. Each tree sees a bootstrap
// resample of the training set and random feature subsets per split.
//
// Trees grow concurrently on cfg.Workers goroutines; because every tree's
// randomness comes from its own (Seed, index)-derived RNG and trees
// assemble into the arena in index order, the result is byte-identical
// for any worker count.
func Train(samples []Sample, cfg ForestConfig) (*Forest, error) {
	if err := validateSamples(samples); err != nil {
		return nil, err
	}
	rows := make([][]float64, len(samples))
	targets := make([]float64, len(samples))
	for i := range samples {
		rows[i] = samples[i].Features
		targets[i] = samples[i].Target
	}
	return trainOn(newDataset(rows), targets, cfg)
}

// Matrix is a prebuilt columnar training matrix: the feature-major
// transpose plus the per-feature argsorted index columns. Building it is
// the only sorting cost in training, so callers fitting several forests
// on the same rows with different targets — the long-term predictor
// trains a percentile and a max forest per resource on one feature
// matrix — build the Matrix once and TrainOnMatrix per target vector. A
// Matrix is read-only after construction and safe for concurrent
// TrainOnMatrix calls.
type Matrix struct {
	ds *dataset
}

// NewMatrix builds a Matrix from row-major feature vectors. The rows are
// copied into columnar storage; the caller may reuse them afterwards.
func NewMatrix(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("mlforest: empty training matrix")
	}
	nFeat := len(rows[0])
	if nFeat == 0 {
		return nil, fmt.Errorf("mlforest: matrix rows have no features")
	}
	for i, r := range rows {
		if len(r) != nFeat {
			return nil, fmt.Errorf("mlforest: matrix row %d has %d features, want %d", i, len(r), nFeat)
		}
	}
	return &Matrix{ds: newDataset(rows)}, nil
}

// NumRows returns the matrix's row count.
func (m *Matrix) NumRows() int { return m.ds.n }

// NumFeatures returns the matrix's feature dimensionality.
func (m *Matrix) NumFeatures() int { return m.ds.nFeat }

// TrainOnMatrix fits a forest against one target vector over a prebuilt
// Matrix. Train(samples, cfg) is exactly equivalent to NewMatrix over the
// samples' features followed by TrainOnMatrix over their targets — same
// forest, byte for byte.
func TrainOnMatrix(m *Matrix, targets []float64, cfg ForestConfig) (*Forest, error) {
	if len(targets) != m.ds.n {
		return nil, fmt.Errorf("mlforest: %d targets for %d-row matrix", len(targets), m.ds.n)
	}
	return trainOn(m.ds, targets, cfg)
}

// trainOn is the shared training core behind Train and TrainOnMatrix.
func trainOn(ds *dataset, targets []float64, cfg ForestConfig) (*Forest, error) {
	if cfg.Trees < 1 {
		return nil, fmt.Errorf("mlforest: ForestConfig.Trees %d < 1", cfg.Trees)
	}
	if cfg.Tree.MinLeaf < 1 {
		cfg.Tree.MinLeaf = 1
	}
	if cfg.Tree.FeatureFrac <= 0 || cfg.Tree.FeatureFrac > 1 {
		cfg.Tree.FeatureFrac = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Trees {
		workers = cfg.Trees
	}

	trees := make([]grownTree, cfg.Trees)
	if workers == 1 {
		b := newTreeBuilder(ds, targets, cfg.Tree)
		for t := range trees {
			trees[t] = b.grow(treeSeed(cfg.Seed, t))
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b := newTreeBuilder(ds, targets, cfg.Tree)
				for {
					t := int(next.Add(1)) - 1
					if t >= len(trees) {
						return
					}
					trees[t] = b.grow(treeSeed(cfg.Seed, t))
				}
			}()
		}
		wg.Wait()
	}
	return flatten(trees, ds.nFeat, ds.n), nil
}

// flatten concatenates the grown trees into the arena in tree order,
// rebasing child links to arena-absolute indexes and folding per-tree
// importances in the same order (float accumulation order is fixed, so
// the arena is byte-identical however the trees were grown).
func flatten(trees []grownTree, nFeat, nSamples int) *Forest {
	var total int
	for i := range trees {
		total += len(trees[i].feature)
	}
	f := &Forest{
		feature:    make([]int32, 0, total),
		threshold:  make([]float64, 0, total),
		left:       make([]int32, 0, total),
		right:      make([]int32, 0, total),
		value:      make([]float64, 0, total),
		roots:      make([]int32, 0, len(trees)),
		importance: make([]float64, nFeat),
		nFeat:      nFeat,
		nSamples:   nSamples,
	}
	for i := range trees {
		t := &trees[i]
		base := int32(len(f.feature))
		f.roots = append(f.roots, base)
		f.feature = append(f.feature, t.feature...)
		f.threshold = append(f.threshold, t.threshold...)
		f.value = append(f.value, t.value...)
		for _, c := range t.left {
			f.left = append(f.left, c+base)
		}
		for _, c := range t.right {
			f.right = append(f.right, c+base)
		}
		for k, v := range t.importance {
			f.importance[k] += v
		}
	}
	f.buildBFS()
	return f
}

// walk descends from arena node i to a leaf for one feature row and
// returns its value.
func (f *Forest) walk(i int32, row []float64) float64 {
	for f.feature[i] >= 0 {
		if row[f.feature[i]] <= f.threshold[i] {
			i = f.left[i]
		} else {
			i = f.right[i]
		}
	}
	return f.value[i]
}

// Predict returns the ensemble mean prediction. A feature vector whose
// length differs from the trained dimensionality predicts 0 and counts in
// Stats().MismatchedRows.
func (f *Forest) Predict(features []float64) float64 {
	f.passes.Add(1)
	f.rowsIn.Add(1)
	if len(features) != f.nFeat {
		f.mismatched.Add(1)
		return 0
	}
	var sum float64
	for _, root := range f.roots {
		sum += f.walk(root, features)
	}
	return sum / float64(len(f.roots))
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.roots) }

// NumFeatures returns the feature dimensionality the forest was trained on.
func (f *Forest) NumFeatures() int { return f.nFeat }

// NumNodes returns the total node count of the arena across all trees.
func (f *Forest) NumNodes() int { return len(f.feature) }

// treeEnd returns one past the last arena index of tree t's node block.
func (f *Forest) treeEnd(t int) int32 {
	if t+1 < len(f.roots) {
		return f.roots[t+1]
	}
	return int32(len(f.feature))
}

// TreeNodes returns the node count of tree t.
func (f *Forest) TreeNodes(t int) int { return int(f.treeEnd(t) - f.roots[t]) }

// TreeDepth returns the maximum depth of tree t (a single leaf has
// depth 0).
func (f *Forest) TreeDepth(t int) int {
	var walk func(i int32) int
	walk = func(i int32) int {
		if f.feature[i] < 0 {
			return 0
		}
		l, r := walk(f.left[i]), walk(f.right[i])
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(f.roots[t])
}

// FeatureImportance returns per-feature total variance reduction, normalized
// to sum to 1 (all zeros when the forest never split).
func (f *Forest) FeatureImportance() []float64 {
	imp := append([]float64(nil), f.importance...)
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// Per-element sizes of the arena slices, for MemoryBytes.
const (
	arenaIndexBytes = int(unsafe.Sizeof(int32(0)))
	arenaFloatBytes = int(unsafe.Sizeof(float64(0)))
	// arenaNodeBytes is one node's share of the SoA arena: feature,
	// threshold, left, right, value.
	arenaNodeBytes = 3*arenaIndexBytes + 2*arenaFloatBytes
	// bfsNodeBytes is one node's share of the level-synchronous mirror:
	// the 16-byte packed node plus its slot in the leaf-value slab.
	bfsNodeBytes = int(unsafe.Sizeof(bfsNode{})) + arenaFloatBytes
)

// MemoryBytes reports the resident size of the model — the arena's real
// footprint (every node's share of the SoA slices plus the per-tree roots
// and per-feature importances) and the breadth-first mirror PredictMatrix
// walks, used by the §4.5 overhead experiment.
func (f *Forest) MemoryBytes() int {
	return len(f.feature)*arenaNodeBytes +
		len(f.bfsNodes)*bfsNodeBytes +
		len(f.roots)*arenaIndexBytes +
		len(f.bfsRoots)*2*arenaIndexBytes + // bfsRoots + bfsDepth
		len(f.importance)*arenaFloatBytes
}

// MSE returns the mean squared error of the forest on a sample set.
func (f *Forest) MSE(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		d := f.Predict(s.Features) - s.Target
		sum += d * d
	}
	return sum / float64(len(samples))
}

// forestWire mirrors Forest with exported fields for gob.
type forestWire struct {
	Feature     []int32
	Threshold   []float64
	Left, Right []int32
	Value       []float64
	Roots       []int32
	Importance  []float64
	NFeat       int
	NSamples    int
}

// GobEncode serializes the arena. Encoding is deterministic: two forests
// trained from the same samples, seed and configuration produce identical
// bytes regardless of Workers, which is how the determinism tests compare
// whole models.
func (f *Forest) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(forestWire{
		Feature:    f.feature,
		Threshold:  f.threshold,
		Left:       f.left,
		Right:      f.right,
		Value:      f.value,
		Roots:      f.roots,
		Importance: f.importance,
		NFeat:      f.nFeat,
		NSamples:   f.nSamples,
	})
	return buf.Bytes(), err
}

// GobDecode restores a forest serialized by GobEncode. The arena is
// validated structurally before installation — a truncated or corrupt
// payload fails here with an error instead of panicking inside a later
// Predict walk.
func (f *Forest) GobDecode(data []byte) error {
	var w forestWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	n := len(w.Feature)
	if len(w.Threshold) != n || len(w.Left) != n || len(w.Right) != n || len(w.Value) != n {
		return fmt.Errorf("mlforest: decoded arena slices have mismatched lengths")
	}
	if n == 0 || len(w.Roots) == 0 {
		return fmt.Errorf("mlforest: decoded forest is empty")
	}
	if len(w.Importance) != w.NFeat {
		return fmt.Errorf("mlforest: decoded importance length %d, want %d features", len(w.Importance), w.NFeat)
	}
	for i := 0; i < n; i++ {
		if w.Feature[i] >= int32(w.NFeat) {
			return fmt.Errorf("mlforest: decoded node %d splits on feature %d of %d", i, w.Feature[i], w.NFeat)
		}
		// Children must point strictly forward — every trained arena
		// satisfies this because nodes append in pre-order — which both
		// bounds the links and rules out cycles, so a corrupt payload can
		// never make a Predict walk spin forever.
		if w.Feature[i] >= 0 && (w.Left[i] <= int32(i) || w.Left[i] >= int32(n) || w.Right[i] <= int32(i) || w.Right[i] >= int32(n)) {
			return fmt.Errorf("mlforest: decoded node %d has child outside the forward arena range", i)
		}
	}
	for _, r := range w.Roots {
		if r < 0 || r >= int32(n) {
			return fmt.Errorf("mlforest: decoded root %d outside arena of %d nodes", r, n)
		}
	}
	// Trees occupy ascending contiguous blocks [roots[t], roots[t+1]) and a
	// node's children never leave its tree's block — properties every
	// trained arena has and the breadth-first relabeling in buildBFS relies
	// on, so a payload violating them must fail here, not panic there.
	if w.Roots[0] != 0 {
		return fmt.Errorf("mlforest: decoded first root %d, want 0", w.Roots[0])
	}
	for t := 1; t < len(w.Roots); t++ {
		if w.Roots[t] <= w.Roots[t-1] {
			return fmt.Errorf("mlforest: decoded roots not strictly ascending at tree %d", t)
		}
	}
	for t := range w.Roots {
		end := int32(n)
		if t+1 < len(w.Roots) {
			end = w.Roots[t+1]
		}
		for i := w.Roots[t]; i < end; i++ {
			if w.Feature[i] >= 0 && (w.Left[i] >= end || w.Right[i] >= end) {
				return fmt.Errorf("mlforest: decoded node %d has child outside its tree block", i)
			}
		}
	}
	f.feature = w.Feature
	f.threshold = w.Threshold
	f.left = w.Left
	f.right = w.Right
	f.value = w.Value
	f.roots = w.Roots
	f.importance = w.Importance
	f.nFeat = w.NFeat
	f.nSamples = w.NSamples
	f.buildBFS()
	return nil
}
