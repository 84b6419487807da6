// Package mlforest implements CART regression trees and bagged random
// forests from scratch on the standard library.
//
// The paper's long-term utilization predictor is a random forest regressor
// (§3.3): "Random forest is well-suited for predicting VM utilization due
// to its effectiveness with categorical variables ... we choose random
// forest because it tends to be less sensitive to overfitting." This
// package is that model family; internal/predict assembles the feature
// vectors and bucket quantization around it.
//
// Training is columnar and pre-sorted (docs/DESIGN.md §8): the training
// set is transposed into a feature-major matrix with per-feature argsorted
// index columns once per Train call, each tree derives its bootstrap's
// sorted columns in O(n·features) without sorting, and nodes are grown by
// linear sweeps plus branch-free stable in-place partitioning. Trees grow
// in parallel on a worker pool with per-tree RNGs, and the trained
// ensemble is flattened into one contiguous breadth-first node slab (see
// Forest).
package mlforest

import (
	"fmt"
	"math"
	"math/rand"
)

// Sample is one training example: a dense feature vector and a target.
// Categorical features are encoded ordinally; CART threshold splits handle
// them adequately for the small cardinalities used here.
type Sample struct {
	Features []float64
	Target   float64
}

// TreeConfig bounds the growth of a single regression tree.
type TreeConfig struct {
	// MaxDepth limits tree depth; <=0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (>=1).
	MinLeaf int
	// FeatureFrac is the fraction of features considered at each split
	// in (0,1]; the classic random-forest decorrelation knob.
	FeatureFrac float64
}

// grownTree is one trained tree before flattening: pre-order SoA node storage
// (leaves have feature == -1; child indexes are tree-local) plus the
// per-feature variance reduction it accumulated.
type grownTree struct {
	feature     []int32
	threshold   []float64
	left, right []int32
	value       []float64
	importance  []float64
}

// treeBuilder grows CART trees over one shared dataset. A builder belongs
// to a single worker goroutine and reuses all scratch across the trees it
// grows; everything a tree computes is derived from the tree's own RNG
// and the read-only dataset, so the result is independent of which worker
// grows which tree.
type treeBuilder struct {
	ds *dataset
	// targets[r] is dataset row r's regression target (held outside the
	// dataset so one matrix serves forests with different targets).
	targets []float64
	cfg     TreeConfig
	rng     *rand.Rand

	// Per-tree bootstrap state, indexed by position p in [0, n):
	boot   []int32   // position -> sampled dataset row
	target []float64 // position -> target of that row (cached)

	// vals[f][p] caches the feature value at a position, feature-major,
	// and sorted[f] holds the positions ordered by that value. Node
	// [lo, hi) owns the same segment of every sorted column.
	vals       [][]float64
	sorted     [][]int32
	valsFlat   []float64
	sortedFlat []int32

	counts   []int32 // counting-sort offsets (len n+1)
	posByRow []int32 // positions grouped by dataset row
	goesLeft []uint8 // split membership (1 left, 0 right), by position
	part     []int32 // stable-partition scratch (len n)
	featOrd  []int   // partial Fisher–Yates scratch (len nFeat)

	// Node output, reset per tree and copied out exact-size when done.
	feature     []int32
	threshold   []float64
	left, right []int32
	value       []float64
	importance  []float64
}

func newTreeBuilder(ds *dataset, targets []float64, cfg TreeConfig) *treeBuilder {
	n, nFeat := ds.n, ds.nFeat
	b := &treeBuilder{
		ds:         ds,
		targets:    targets,
		cfg:        cfg,
		boot:       make([]int32, n),
		target:     make([]float64, n),
		valsFlat:   make([]float64, n*nFeat),
		sortedFlat: make([]int32, n*nFeat),
		vals:       make([][]float64, nFeat),
		sorted:     make([][]int32, nFeat),
		counts:     make([]int32, n+1),
		posByRow:   make([]int32, n),
		goesLeft:   make([]uint8, n),
		part:       make([]int32, n),
		featOrd:    make([]int, nFeat),
	}
	for f := 0; f < nFeat; f++ {
		b.vals[f] = b.valsFlat[f*n : (f+1)*n : (f+1)*n]
		b.sorted[f] = b.sortedFlat[f*n : (f+1)*n : (f+1)*n]
	}
	return b
}

// grow trains one tree from its own deterministic RNG: draw the bootstrap,
// derive the sorted bootstrap columns from the dataset's global argsort,
// and recurse. The returned tree owns its storage (the builder's scratch
// is reused for the next tree).
func (b *treeBuilder) grow(seed int64) grownTree {
	b.rng = rand.New(rand.NewSource(seed))
	n := b.ds.n

	// Bootstrap resample (with replacement), caching targets per position.
	for p := 0; p < n; p++ {
		r := int32(b.rng.Intn(n))
		b.boot[p] = r
		b.target[p] = b.targets[r]
	}

	// Counting pass: group positions by dataset row. After the fill,
	// row r's positions are posByRow[counts[r-1]:counts[r]] (counts[-1]=0),
	// in ascending position order.
	cnt := b.counts
	for i := range cnt {
		cnt[i] = 0
	}
	for _, r := range b.boot {
		cnt[r+1]++
	}
	for r := 1; r <= n; r++ {
		cnt[r] += cnt[r-1]
	}
	fill := cnt[:n] // fill[r] advances from row r's start to its end
	for p := 0; p < n; p++ {
		r := b.boot[p]
		b.posByRow[fill[r]] = int32(p)
		fill[r]++
	}

	// Derive each feature's sorted bootstrap column by walking the global
	// argsort and emitting every sampled copy of each row — O(n) per
	// feature, no comparison sort. vals caches values position-major so
	// the split sweeps touch one dense array.
	for f := 0; f < b.ds.nFeat; f++ {
		col := b.ds.cols[f]
		out := b.sorted[f]
		k := 0
		for _, r := range b.ds.sortedRows[f] {
			lo := int32(0)
			if r > 0 {
				lo = cnt[r-1]
			}
			for _, p := range b.posByRow[lo:cnt[r]] {
				out[k] = p
				k++
			}
		}
		vals := b.vals[f]
		for p := 0; p < n; p++ {
			vals[p] = col[b.boot[p]]
		}
	}

	// Feature-order scratch starts as the identity permutation each tree
	// (it must not carry state between trees: with parallel workers the
	// previous tree a builder grew depends on scheduling).
	for f := range b.featOrd {
		b.featOrd[f] = f
	}

	b.feature = b.feature[:0]
	b.threshold = b.threshold[:0]
	b.left = b.left[:0]
	b.right = b.right[:0]
	b.value = b.value[:0]
	if b.importance == nil {
		b.importance = make([]float64, b.ds.nFeat)
	}
	for f := range b.importance {
		b.importance[f] = 0
	}

	b.build(0, n, 0)

	t := grownTree{
		feature:    append([]int32(nil), b.feature...),
		threshold:  append([]float64(nil), b.threshold...),
		left:       append([]int32(nil), b.left...),
		right:      append([]int32(nil), b.right...),
		value:      append([]float64(nil), b.value...),
		importance: append([]float64(nil), b.importance...),
	}
	return t
}

// build grows the subtree owning segment [lo, hi) of every sorted column
// and returns its tree-local node index. Nodes append in pre-order.
func (b *treeBuilder) build(lo, hi, depth int) int32 {
	m := hi - lo
	var sum, sq float64
	for _, p := range b.sorted[0][lo:hi] {
		t := b.target[p]
		sum += t
		sq += t * t
	}
	fm := float64(m)
	mean := sum / fm
	variance := sq/fm - mean*mean
	if variance < 0 {
		variance = 0 // numeric noise
	}

	me := int32(len(b.feature))
	b.feature = append(b.feature, -1)
	b.threshold = append(b.threshold, 0)
	b.left = append(b.left, 0)
	b.right = append(b.right, 0)
	b.value = append(b.value, mean)

	if m < 2*b.cfg.MinLeaf || variance <= 1e-12 {
		return me
	}
	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		return me
	}

	feat, nl, thr, gain := b.bestSplit(lo, hi, sum, sq, variance)
	if feat < 0 {
		return me
	}
	b.importance[feat] += gain * fm

	// Mark membership straight off the chosen feature's sorted segment
	// (its first nl positions are the left child by construction), then
	// stably partition every other column so both children again own
	// contiguous, sorted segments.
	col := b.sorted[feat]
	for _, p := range col[lo : lo+nl] {
		b.goesLeft[p] = 1
	}
	for _, p := range col[lo+nl : hi] {
		b.goesLeft[p] = 0
	}
	for f := 0; f < b.ds.nFeat; f++ {
		if f != feat {
			b.partition(b.sorted[f], lo, hi)
		}
	}

	l := b.build(lo, lo+nl, depth+1)
	r := b.build(lo+nl, hi, depth+1)
	b.feature[me] = int32(feat)
	b.threshold[me] = thr
	b.left[me] = l
	b.right[me] = r
	return me
}

// bestSplit sweeps a random subset of features' sorted segments for the
// threshold with the largest variance reduction. It returns feature -1
// when no valid split improves on the parent; otherwise nl is the left
// child's size within the segment and thr the split threshold.
//
// The threshold is the *left* boundary value itself (go left when
// x <= thr), never a midpoint: (v[j]+v[j+1])/2 can round to v[j+1] for
// adjacent floats, which would send training points that went right at
// fit time to the left at predict time.
func (b *treeBuilder) bestSplit(lo, hi int, segSum, segSq, parentVar float64) (feat, nl int, thr, gain float64) {
	nFeat := b.ds.nFeat
	nTry := int(math.Ceil(b.cfg.FeatureFrac * float64(nFeat)))
	if nTry < 1 {
		nTry = 1
	}
	// Partial Fisher–Yates into the reused permutation scratch: only the
	// first nTry entries are shuffled and nothing allocates (the seed
	// engine built a full rng.Perm slice per node).
	ord := b.featOrd
	for i := 0; i < nTry; i++ {
		j := i + b.rng.Intn(nFeat-i)
		ord[i], ord[j] = ord[j], ord[i]
	}

	m := hi - lo
	n := float64(m)
	minLeaf := b.cfg.MinLeaf
	best := math.Inf(-1)
	feat = -1

	for _, f := range ord[:nTry] {
		col := b.sorted[f][lo:hi]
		vals := b.vals[f]
		var sumL, sqL float64
		sumR, sqR := segSum, segSq
		// One linear sweep evaluates every split point via prefix sums:
		// weighted child variance = E[t^2] - E[t]^2 per side.
		for j := 0; j < m-1; j++ {
			t := b.target[col[j]]
			sumL += t
			sqL += t * t
			sumR -= t
			sqR -= t * t
			v := vals[col[j]]
			if v == vals[col[j+1]] {
				continue // cannot split between equal values
			}
			l, r := j+1, m-j-1
			if l < minLeaf || r < minLeaf {
				continue
			}
			fl, fr := float64(l), float64(r)
			varL := sqL/fl - (sumL/fl)*(sumL/fl)
			varR := sqR/fr - (sumR/fr)*(sumR/fr)
			score := parentVar - (fl*varL+fr*varR)/n
			if score > best {
				best = score
				feat = f
				nl = l
				thr = v
			}
		}
	}
	if feat < 0 || best <= 1e-12 {
		return -1, 0, 0, 0
	}
	return feat, nl, thr, best
}

// partition stably splits col[lo:hi] by goesLeft: left-marked positions
// first, then the rest, each side keeping its sorted order. It is
// branch-free — membership is random with respect to this column's
// order, so a branch on it mispredicts about half the time: every
// position is written to both the left cursor (in place; it never
// passes the read cursor) and the right side's scratch cursor, and the
// membership bit advances exactly one of them. The right side is then
// copied back behind the left.
func (b *treeBuilder) partition(col []int32, lo, hi int) {
	seg := col[lo:hi]
	scratch := b.part[:len(seg)]
	w, s := 0, 0
	for _, p := range seg {
		l := int(b.goesLeft[p])
		seg[w] = p
		scratch[s] = p
		w += l
		s += 1 - l
	}
	copy(seg[w:], scratch[:s])
}

// treeSeed derives tree t's RNG seed from the forest seed with a
// splitmix64-style mix, so per-tree streams are decorrelated and depend
// only on (Seed, t) — never on worker scheduling.
func treeSeed(seed int64, t int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(t+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// validateSamples checks shape consistency of a training set.
func validateSamples(samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("mlforest: empty training set")
	}
	nFeat := len(samples[0].Features)
	if nFeat == 0 {
		return fmt.Errorf("mlforest: samples have no features")
	}
	for i, s := range samples {
		if len(s.Features) != nFeat {
			return fmt.Errorf("mlforest: sample %d has %d features, want %d", i, len(s.Features), nFeat)
		}
	}
	return nil
}
