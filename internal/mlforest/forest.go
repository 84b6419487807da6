package mlforest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/coach-oss/coach/internal/par"
)

// ForestConfig configures a bagged random forest.
type ForestConfig struct {
	// Trees is the ensemble size.
	Trees int
	// Tree bounds each member tree.
	Tree TreeConfig
	// Seed makes training deterministic.
	Seed int64
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

// node is one tree node, packed to 16 bytes so four share a cache line.
// Only the left child index is stored: siblings are adjacent, so an
// internal node's right child is always Lo+1. A leaf is a self-looping
// node{Thr: value, Lo: self, Feat: nFeat} holding its own leaf value:
// feature nFeat is the RowMatrix pad column, which is always NaN, and
// NaN > v is false for every v, so the compare can never select Lo+1, a
// row that reaches a leaf stays on it, and neither inference schedule
// needs an is-leaf branch to stay in bounds. Fields are exported for gob
// only.
type node struct {
	Thr  float64
	Lo   int32
	Feat int32
}

// Forest is a trained random forest regressor. The ensemble is stored in
// one layout (docs/DESIGN.md §8): trees are concatenated in training order
// (tree t's nodes occupy [roots[t], end of its block)), each block is
// ordered breadth-first so one tree level is one contiguous node range,
// and links are slab-absolute. A leaf's value is its node's Thr. Predict
// walks it one row at a time, PredictSweep one level at a time.
type Forest struct {
	nodes []node
	roots []int32 // slab index of each tree's root
	depth []int32 // per-tree max depth = PredictSweep level count

	nFeat    int
	nSamples int

	// Inference counters, see Stats.
	passes, rowsIn, mismatched, lanes atomic.Int64

	// scratch pools PredictSweep working sets (*sweepScratch).
	scratch sync.Pool
}

// Stats is a snapshot of a forest's inference counters.
type Stats struct {
	// Passes counts inference calls: Predict and PredictSweep (so
	// PredictMatrix) each add one regardless of batch size, so a caller
	// batching K candidates into one matrix is distinguishable from one
	// looping K single-row predictions.
	Passes int64 `json:"passes"`
	// Rows counts feature rows submitted across all passes; a sweep
	// submits rows × values.
	Rows int64 `json:"rows"`
	// MismatchedRows counts rows rejected for feature-dimension mismatch.
	// Such rows predict 0 without consulting the ensemble; a nonzero count
	// means a feature-schema bug upstream that would otherwise masquerade
	// as a confident zero-utilization prediction.
	MismatchedRows int64 `json:"mismatched_rows"`
	// Lanes counts the walks PredictSweep had in flight at the end of each
	// tree block, summed. Lanes ÷ (Rows × trees) is the share of walks left
	// after rows that differ only in the swept feature shared theirs: 1
	// when nothing is swept, 1/values when no tree splits on the feature.
	Lanes int64 `json:"lanes"`
}

// Stats returns a snapshot of the forest's inference counters. Counters
// are cumulative since training or decoding and safe to read concurrently
// with predictions.
func (f *Forest) Stats() Stats {
	return Stats{
		Passes:         f.passes.Load(),
		Rows:           f.rowsIn.Load(),
		MismatchedRows: f.mismatched.Load(),
		Lanes:          f.lanes.Load(),
	}
}

// Train fits a forest with bootstrap bagging. Each tree sees a bootstrap
// resample of the training set and random feature subsets per split. A
// NaN feature, or a feature with more than 65 535 distinct values, is an
// error (see NewMatrix).
//
// Trees grow concurrently on every core; because every tree's
// randomness comes from its own (Seed, index)-derived RNG and trees
// assemble into the forest in index order, the result is byte-identical
// for any core count.
func Train(samples []Sample, cfg ForestConfig) (*Forest, error) {
	rows := make([][]float64, len(samples))
	targets := make([]float64, len(samples))
	for i := range samples {
		rows[i] = samples[i].Features
		targets[i] = samples[i].Target
	}
	ds, err := newDataset(rows)
	if err != nil {
		return nil, err
	}
	return trainOn(ds, targets, cfg)
}

// Matrix is a prebuilt rank-coded training matrix: each feature's sorted
// distinct values plus every row's rank among them. Building it is the
// only sorting cost in training, so callers fitting several forests
// on the same rows with different targets — the long-term predictor
// trains a percentile and a max forest per resource on one feature
// matrix — build the Matrix once and TrainOnMatrix per target vector. A
// Matrix is read-only after construction and safe for concurrent
// TrainOnMatrix calls.
type Matrix struct {
	ds *dataset
}

// NewMatrix builds a Matrix from row-major feature vectors. The rows are
// coded into the matrix's own storage; the caller may reuse them
// afterwards. A NaN feature, or a feature with more than 65 535 distinct
// values, is an error: a value's code is its rank, held in a uint16.
func NewMatrix(rows [][]float64) (*Matrix, error) {
	ds, err := newDataset(rows)
	if err != nil {
		return nil, err
	}
	return &Matrix{ds: ds}, nil
}

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
	trees := make([]grownTree, cfg.Trees)
	builders := sync.Pool{New: func() any { return newTreeBuilder(ds, targets, cfg.Tree) }}
	par.ForEach(0, cfg.Trees, func(t int) {
		b := builders.Get().(*treeBuilder)
		trees[t] = b.grow(treeSeed(cfg.Seed, t))
		builders.Put(b)
	})
	return flatten(trees, ds.nFeat, ds.n), nil
}

// flatten relabels the grown trees breadth-first into the forest's node
// slab in tree order, so the forest is byte-identical however the trees
// were grown.
func flatten(trees []grownTree, nFeat, nSamples int) *Forest {
	var total int
	for i := range trees {
		total += len(trees[i].feature)
	}
	f := &Forest{
		nodes:    make([]node, 0, total),
		roots:    make([]int32, 0, len(trees)),
		nFeat:    nFeat,
		nSamples: nSamples,
	}
	var queue []int32 // per-tree scratch: tree-local node indexes in BFS order
	for i := range trees {
		t := &trees[i]
		base := int32(len(f.nodes))
		f.roots = append(f.roots, base)
		queue = append(queue[:0], 0)
		for q := 0; q < len(queue); q++ {
			n := queue[q]
			if t.feature[n] < 0 {
				f.nodes = append(f.nodes, node{Thr: t.value[n], Lo: base + int32(q), Feat: int32(nFeat)})
				continue
			}
			// Both children join the queue back to back, so the left one's
			// slab index is the queue length and the right one's is Lo+1.
			f.nodes = append(f.nodes, node{Thr: t.threshold[n], Lo: base + int32(len(queue)), Feat: t.feature[n]})
			queue = append(queue, t.left[n], t.right[n])
		}
	}
	f.setDepths()
	return f
}

// setDepths derives every tree's depth from its links. Children lie
// strictly after their parent, so one forward pass over a block levels it.
// (A hand-made payload may hold nodes no root reaches; counting them can
// only overstate a depth, and extra level steps re-land on leaves.)
func (f *Forest) setDepths() {
	f.depth = make([]int32, len(f.roots))
	level := make([]int32, len(f.nodes))
	for t, root := range f.roots {
		for i := root; i < f.treeEnd(t); i++ {
			if level[i] > f.depth[t] {
				f.depth[t] = level[i]
			}
			if lo := f.nodes[i].Lo; lo != i {
				level[lo] = max(level[lo], level[i]+1)
				level[lo+1] = max(level[lo+1], level[i]+1)
			}
		}
	}
}

// Predict returns the ensemble mean prediction: each tree is walked from
// its root until the row lands on a self-looping leaf, whose Thr is the
// tree's answer. A feature vector whose length differs from the trained
// dimensionality predicts 0 and counts in Stats().MismatchedRows.
func (f *Forest) Predict(features []float64) float64 {
	f.passes.Add(1)
	f.rowsIn.Add(1)
	if len(features) != f.nFeat {
		f.mismatched.Add(1)
		return 0
	}
	var sum float64
	for _, i := range f.roots {
		nd := f.nodes[i]
		for nd.Lo != i {
			i = nd.Lo
			if features[nd.Feat] > nd.Thr {
				i++
			}
			nd = f.nodes[i]
		}
		sum += nd.Thr
	}
	return sum / float64(len(f.roots))
}

// treeEnd returns one past the last slab index of tree t's node block.
func (f *Forest) treeEnd(t int) int32 {
	if t+1 < len(f.roots) {
		return f.roots[t+1]
	}
	return int32(len(f.nodes))
}

// MemoryBytes reports the resident size of the model — every node's
// 16-byte packed record and the per-tree roots and depths — used by the
// §4.5 overhead experiment.
func (f *Forest) MemoryBytes() int {
	const indexBytes = 4
	return len(f.nodes)*int(unsafe.Sizeof(node{})) + len(f.roots)*2*indexBytes
}

// forestWire mirrors Forest with exported fields for gob. Depths are not
// on the wire: GobDecode recomputes them from the links.
type forestWire struct {
	Nodes    []node
	Roots    []int32
	NFeat    int
	NSamples int
}

// GobEncode serializes the forest. Encoding is deterministic: two forests
// trained from the same samples, seed and configuration produce identical
// bytes on any core count, which is how the determinism tests compare
// whole models.
func (f *Forest) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(forestWire{
		Nodes:    f.nodes,
		Roots:    f.roots,
		NFeat:    f.nFeat,
		NSamples: f.nSamples,
	})
	return buf.Bytes(), err
}

// GobDecode restores a forest serialized by GobEncode. Predict and
// PredictSweep index the slabs unchecked, so every property they rely on
// is validated here — a truncated or corrupt payload fails with an error
// instead of panicking or spinning inside a later prediction.
func (f *Forest) GobDecode(data []byte) error {
	var w forestWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	n := int32(len(w.Nodes))
	if n == 0 || len(w.Roots) == 0 {
		return fmt.Errorf("mlforest: decoded forest is empty")
	}
	// Trees occupy ascending contiguous blocks [roots[t], roots[t+1]).
	if w.Roots[0] != 0 {
		return fmt.Errorf("mlforest: decoded first root %d, want 0", w.Roots[0])
	}
	for t, root := range w.Roots {
		end := n
		if t+1 < len(w.Roots) {
			end = w.Roots[t+1]
		}
		if end <= root || end > n {
			return fmt.Errorf("mlforest: decoded tree %d spans [%d, %d) of %d nodes", t, root, end, n)
		}
		for i := root; i < end; i++ {
			nd := w.Nodes[i]
			if nd.Lo == i {
				// A leaf must hold every row: only the NaN pad column at
				// NFeat exceeds no threshold.
				if int(nd.Feat) != w.NFeat {
					return fmt.Errorf("mlforest: decoded leaf %d reads feature %d, want the pad column %d", i, nd.Feat, w.NFeat)
				}
				continue
			}
			if nd.Feat < 0 || int(nd.Feat) >= w.NFeat {
				return fmt.Errorf("mlforest: decoded node %d reads feature %d of %d", i, nd.Feat, w.NFeat)
			}
			// Children point strictly forward and stay inside the tree's
			// block, which bounds every link and rules out cycles.
			if nd.Lo <= i || nd.Lo >= end-1 {
				return fmt.Errorf("mlforest: decoded node %d has children outside (%d, %d)", i, i, end)
			}
		}
	}
	f.nodes = w.Nodes
	f.roots = w.Roots
	f.nFeat = w.NFeat
	f.nSamples = w.NSamples
	f.setDepths()
	return nil
}
