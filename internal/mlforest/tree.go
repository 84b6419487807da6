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
// Training runs on histograms (docs/DESIGN.md §8): each feature value is
// coded once per training matrix as its rank among the feature's distinct
// training values, a node's split search is one pass filling per-code
// (weight, sum, sum of squares) histograms and a prefix sweep over them,
// and a split stably partitions one row list. Trees grow on every core
// with per-tree RNGs, and the trained ensemble is flattened into one
// contiguous breadth-first node slab (see Forest).
package mlforest

import (
	"math"
	"math/rand"
	"slices"
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
// (leaves have feature == -1; child indexes are tree-local).
type grownTree struct {
	feature     []int32
	threshold   []float64
	left, right []int32
	value       []float64
}

// entry is one distinct row of a tree's bootstrap: the dataset row, how
// many times the bootstrap drew it, and its target.
type entry struct {
	row int32
	w   int32
	t   float64
}

// bin is one code's histogram cell at a node: the bootstrap weight of the
// node's rows with that code, and their weighted target sum and
// weighted squared-target sum.
type bin struct {
	sum, sq float64
	cnt     int32
}

// treeBuilder grows CART trees over one shared dataset. A builder serves
// one tree at a time and reuses its scratch across the trees it grows;
// everything a tree computes is derived from the tree's own RNG and the
// read-only dataset, so the result is independent of which builder grows
// which tree.
type treeBuilder struct {
	ds *dataset
	// targets[r] is dataset row r's regression target (held outside the
	// dataset so one matrix serves forests with different targets).
	targets []float64
	cfg     TreeConfig
	rng     *rand.Rand

	drawn []int32 // bootstrap draws per dataset row (len n)
	// list holds the tree's distinct bootstrap rows; node [lo, hi) owns
	// list[lo:hi], in ascending row order.
	list    []entry
	part    []entry  // stable-partition scratch
	bins    []bin    // feature f's histogram is bins[off[f]:off[f+1]]
	off     []int    // len nFeat+1
	touched []uint16 // sparse-sweep scratch
	featOrd []int    // partial Fisher–Yates scratch (len nFeat)

	// Node output, reset per tree and copied out exact-size when done.
	feature     []int32
	threshold   []float64
	left, right []int32
	value       []float64
}

func newTreeBuilder(ds *dataset, targets []float64, cfg TreeConfig) *treeBuilder {
	b := &treeBuilder{
		ds:      ds,
		targets: targets,
		cfg:     cfg,
		drawn:   make([]int32, ds.n),
		off:     make([]int, ds.nFeat+1),
		featOrd: make([]int, ds.nFeat),
	}
	for f, lv := range ds.levels {
		b.off[f+1] = b.off[f] + len(lv)
	}
	b.bins = make([]bin, b.off[ds.nFeat])
	return b
}

// grow trains one tree from its own deterministic RNG: draw the bootstrap,
// lay its distinct rows out in ascending row order with their draw counts
// as weights, and recurse. The returned tree owns its storage (the
// builder's scratch is reused for the next tree).
func (b *treeBuilder) grow(seed int64) grownTree {
	b.rng = rand.New(rand.NewSource(seed))
	n := b.ds.n
	clear(b.drawn)
	for p := 0; p < n; p++ {
		b.drawn[b.rng.Intn(n)]++
	}
	b.list = b.list[:0]
	for r, w := range b.drawn {
		if w > 0 {
			b.list = append(b.list, entry{row: int32(r), w: w, t: b.targets[r]})
		}
	}
	if cap(b.part) < len(b.list) {
		b.part = make([]entry, len(b.list))
	}

	// Feature-order scratch starts as the identity permutation each tree
	// (it must not carry state between trees: which tree a builder grew
	// before depends on scheduling).
	for f := range b.featOrd {
		b.featOrd[f] = f
	}

	b.feature = b.feature[:0]
	b.threshold = b.threshold[:0]
	b.left = b.left[:0]
	b.right = b.right[:0]
	b.value = b.value[:0]

	b.build(0, len(b.list), 0)

	return grownTree{
		feature:   slices.Clone(b.feature),
		threshold: slices.Clone(b.threshold),
		left:      slices.Clone(b.left),
		right:     slices.Clone(b.right),
		value:     slices.Clone(b.value),
	}
}

// build grows the subtree owning list[lo:hi] and returns its tree-local
// node index. Nodes append in pre-order.
func (b *treeBuilder) build(lo, hi, depth int) int32 {
	var m int32
	var sum, sq float64
	for _, e := range b.list[lo:hi] {
		wt := float64(e.w) * e.t
		m += e.w
		sum += wt
		sq += wt * e.t
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

	if int(m) < 2*b.cfg.MinLeaf || variance <= 1e-12 {
		return me
	}
	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		return me
	}

	feat, code := b.bestSplit(lo, hi, m, sum, sq, variance)
	if feat < 0 {
		return me
	}
	mid := b.partition(lo, hi, feat, code)

	l := b.build(lo, mid, depth+1)
	r := b.build(mid, hi, depth+1)
	b.feature[me] = int32(feat)
	b.threshold[me] = b.ds.levels[feat][code]
	b.left[me] = l
	b.right[me] = r
	return me
}

// bestSplit searches a random subset of features for the code boundary
// with the largest variance reduction. It returns feature -1 when no
// valid split improves on the parent; otherwise rows whose code is at
// most code go left.
//
// The threshold is the *left* boundary value itself, levels[feat][code]
// (go left when x <= thr), never a midpoint: (v[j]+v[j+1])/2 can round
// to v[j+1] for adjacent floats, which would send training points that
// went right at fit time to the left at predict time.
func (b *treeBuilder) bestSplit(lo, hi int, m int32, segSum, segSq, parentVar float64) (feat int, code uint16) {
	nFeat := b.ds.nFeat
	nTry := int(math.Ceil(b.cfg.FeatureFrac * float64(nFeat)))
	if nTry < 1 {
		nTry = 1
	}
	// Partial Fisher–Yates into the reused permutation scratch: only the
	// first nTry entries are shuffled and nothing allocates.
	ord := b.featOrd
	for i := 0; i < nTry; i++ {
		j := i + b.rng.Intn(nFeat-i)
		ord[i], ord[j] = ord[j], ord[i]
	}
	tried := ord[:nTry]

	// One pass over the node's rows fills every tried feature's histogram.
	seg := b.list[lo:hi]
	codes := b.ds.codes
	for _, e := range seg {
		row := codes[int(e.row)*nFeat : int(e.row)*nFeat+nFeat]
		wt := float64(e.w) * e.t
		wsq := wt * e.t
		for _, f := range tried {
			h := &b.bins[b.off[f]+int(row[f])]
			h.cnt += e.w
			h.sum += wt
			h.sq += wsq
		}
	}

	s := scan{m: m, minLeaf: int32(b.cfg.MinLeaf), fm: float64(m), sum: segSum, sq: segSq,
		parentVar: parentVar, best: math.Inf(-1)}
	feat = -1
	for _, f := range tried {
		s.cnt, s.sumL, s.sqL = 0, 0, 0
		before := s.best
		bins := b.bins[b.off[f]:b.off[f+1]]
		if len(bins) <= 4*len(seg) {
			// Dense: visit every code in order, then clear them all.
			for c := range bins {
				s.add(c, bins[c])
			}
			clear(bins)
		} else {
			// Sparse: sort the node's own codes and visit each once.
			t := b.touched[:0]
			for _, e := range seg {
				t = append(t, codes[int(e.row)*nFeat+f])
			}
			slices.Sort(t)
			for i, c := range t {
				if i == 0 || c != t[i-1] {
					s.add(int(c), bins[c])
					bins[c] = bin{}
				}
			}
			b.touched = t
		}
		if s.best > before {
			feat, code = f, uint16(s.code)
		}
	}
	if feat < 0 || s.best <= 1e-12 {
		return -1, 0
	}
	return feat, code
}

// scan is the prefix sweep over one node's histograms: codes arrive in
// ascending order, and the boundary after each is scored by weighted
// child variance, E[t^2] - E[t]^2 per side. best carries across
// features, so a later feature must beat it strictly.
type scan struct {
	m, minLeaf      int32
	fm, sum, sq     float64
	parentVar, best float64
	cnt             int32 // weight left of the boundary
	sumL, sqL       float64
	code            int // the boundary best was scored at
}

// add moves code c's bin left of the boundary and scores the boundary
// after it. Empty bins are no boundary.
func (s *scan) add(c int, h bin) {
	if h.cnt == 0 {
		return
	}
	s.cnt += h.cnt
	s.sumL += h.sum
	s.sqL += h.sq
	l, r := s.cnt, s.m-s.cnt
	if l < s.minLeaf || r < s.minLeaf {
		return
	}
	fl, fr := float64(l), float64(r)
	sumR, sqR := s.sum-s.sumL, s.sq-s.sqL
	varL := s.sqL/fl - (s.sumL/fl)*(s.sumL/fl)
	varR := sqR/fr - (sumR/fr)*(sumR/fr)
	if score := s.parentVar - (fl*varL+fr*varR)/s.fm; score > s.best {
		s.best, s.code = score, c
	}
}

// partition stably splits list[lo:hi] by feature f's code — at most code
// goes left, each side keeping its row order — and returns the boundary.
// It is branch-free, since membership is random in row order: every
// entry is written to both the left cursor (in place; it never passes the
// read cursor) and the right side's scratch cursor, and the membership
// bit advances exactly one of them. The right side is then copied back
// behind the left.
func (b *treeBuilder) partition(lo, hi, f int, code uint16) int {
	seg := b.list[lo:hi]
	scratch := b.part[:len(seg)]
	nFeat := b.ds.nFeat
	w, s := 0, 0
	for _, e := range seg {
		l := 0
		if b.ds.codes[int(e.row)*nFeat+f] <= code {
			l = 1
		}
		seg[w] = e
		scratch[s] = e
		w += l
		s += 1 - l
	}
	copy(seg[w:], scratch[:s])
	return lo + w
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
