package mlforest

import (
	"fmt"
	"math"
)

// This file implements the level-synchronous inference path
// (docs/DESIGN.md §14). Alongside the depth-first node arena that Predict
// pointer-walks row by row, every trained Forest carries a second,
// breadth-first layout of the same ensemble: per-tree slabs in which each
// level's nodes are contiguous and leaves are self-looping sentinels
// (feature 0, threshold +Inf, both children pointing at the node
// itself). PredictMatrix advances an entire batch of rows through a
// tree one level per step — one tight compare-and-advance loop across all
// rows, no per-row leaf checks, no data-dependent control flow beyond a
// single compare the compiler turns into a conditional move — so the
// serial pointer-chase latency of the row-by-row walk is replaced by
// independent per-row steps the CPU can overlap.
//
// The accumulation order is exactly Predict's: trees evaluate in training
// order, each row's running sum adds tree t's leaf before tree t+1's, and
// the final division by the ensemble size is the same single operation.
// Predict and PredictMatrix are therefore bit-identical — pinned by the
// equivalence wall in matrix_test.go and the fuzzed random-arena walk
// comparison.

// RowMatrix is a feature-major batch of prediction inputs: column f holds
// every row's value of feature f contiguously (data[f*rows+r]). The
// batched prediction paths carve it from one flat buffer — Reset reuses
// the backing array across batches — so a serving-rate stream of
// fleet-sized what-if batches allocates nothing in steady state.
//
// A RowMatrix is not safe for concurrent mutation; fill it, then hand it
// to PredictMatrix (which only reads it).
type RowMatrix struct {
	data  []float64
	rows  int
	nFeat int
}

// NewRowMatrix returns a matrix sized for rows×nFeat values. Cells start
// at zero; callers normally overwrite every row via SetRow or Set.
func NewRowMatrix(rows, nFeat int) *RowMatrix {
	m := &RowMatrix{}
	m.Reset(rows, nFeat)
	return m
}

// NewRowMatrixFrom builds a matrix from row-major feature vectors, the
// transposing convenience the tests and one-shot callers use.
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

// Reset resizes the matrix for a new batch, reusing the backing buffer
// when it is large enough. Existing cell values are unspecified after
// Reset; callers must fill every row they submit.
func (m *RowMatrix) Reset(rows, nFeat int) {
	need := rows * nFeat
	if cap(m.data) < need {
		m.data = make([]float64, need)
	}
	m.data = m.data[:need]
	m.rows, m.nFeat = rows, nFeat
}

// Rows returns the batch size.
func (m *RowMatrix) Rows() int { return m.rows }

// NumFeatures returns the feature dimensionality.
func (m *RowMatrix) NumFeatures() int { return m.nFeat }

// Set stores one cell.
func (m *RowMatrix) Set(r, f int, v float64) { m.data[f*m.rows+r] = v }

// At reads one cell.
func (m *RowMatrix) At(r, f int) float64 { return m.data[f*m.rows+r] }

// SetRow scatters one row-major feature vector into the matrix's columns.
// feats must have exactly NumFeatures values.
func (m *RowMatrix) SetRow(r int, feats []float64) {
	if len(feats) != m.nFeat {
		panic(fmt.Sprintf("mlforest: SetRow with %d features, want %d", len(feats), m.nFeat))
	}
	for f, v := range feats {
		m.data[f*m.rows+r] = v
	}
}

// bfsNode is one node of the breadth-first mirror, packed to 16 bytes so
// four nodes share a cache line — the pointer-walk arena spreads a visit
// over the feature/threshold/left/right slabs (four lines when the
// ensemble outgrows cache), which is exactly the footprint the mirror
// exists to shrink. Only the left child index is stored: BFS relabeling
// appends siblings adjacently, so an internal node's right child is
// always lo+1. A leaf stores lo = its own index with threshold +Inf; the
// compare can then never select lo+1, so the self-loop needs no second
// link either.
type bfsNode struct {
	thr  float64
	lo   int32
	feat int32
}

// buildBFS derives the breadth-first mirror from the depth-first arena.
// It runs once per trained or decoded forest (flatten, GobDecode); the
// mirror is a pure function of the arena, so it is never serialized.
//
// Within the arena, tree t's nodes occupy the contiguous block
// [roots[t], treeEnd(t)) in depth-first pre-order; the BFS relabeling
// keeps the same per-tree blocks but orders each block level by level,
// which is what makes one PredictMatrix level step touch a contiguous
// node range. Leaves become self-looping sentinels: feature 0 (a valid
// column, so the gather never indexes out of bounds), threshold +Inf (the
// compare always sends the row to lo) and lo the node itself — a row that
// reaches a leaf early simply re-lands on it every remaining level, so
// the inner loop needs no is-leaf branch at all.
func (f *Forest) buildBFS() {
	n := len(f.feature)
	f.bfsNodes = make([]bfsNode, n)
	f.bfsVal = make([]float64, n)
	f.bfsRoots = make([]int32, len(f.roots))
	f.bfsDepth = make([]int32, len(f.roots))

	var order []int32 // per-tree scratch: arena indices in BFS order
	var depth []int32 // per-tree scratch: BFS level of each ordered node
	var inv []int32   // per-tree scratch: arena index - base -> BFS slab index
	for t, root := range f.roots {
		base := f.roots[t] // BFS block shares the tree's arena offsets
		end := f.treeEnd(t)
		size := int(end - base)
		order = append(order[:0], root)
		depth = append(depth[:0], 0)
		for qi := 0; qi < len(order); qi++ {
			i := order[qi]
			if f.feature[i] >= 0 {
				order = append(order, f.left[i], f.right[i])
				depth = append(depth, depth[qi]+1, depth[qi]+1)
			}
		}
		if cap(inv) < size {
			inv = make([]int32, size)
		}
		inv = inv[:size]
		for bi, ai := range order {
			inv[ai-base] = base + int32(bi)
		}
		f.bfsRoots[t] = base
		for bi, ai := range order {
			j := base + int32(bi)
			if f.feature[ai] >= 0 {
				// Children were appended to the BFS order back to back, so
				// inv[right] == inv[left]+1 by construction and only the
				// left link is stored.
				f.bfsNodes[j] = bfsNode{
					thr:  f.threshold[ai],
					lo:   inv[f.left[ai]-base],
					feat: f.feature[ai],
				}
			} else {
				f.bfsNodes[j] = bfsNode{thr: math.Inf(1), lo: j, feat: 0}
				f.bfsVal[j] = f.value[ai]
			}
			if d := depth[bi]; d > f.bfsDepth[t] {
				f.bfsDepth[t] = d
			}
		}
	}
}

// PredictMatrix predicts every row of the batch in one level-synchronous
// ensemble pass, writing into out when it has matching length (allocating
// otherwise) and returning the slice used. Results are bit-identical to
// calling Predict per row: each row accumulates its per-tree leaf values
// in training order and the final division is the same operation — only
// the walk schedule differs. A matrix whose feature dimensionality does
// not match the trained forest predicts 0 for every row, as in Predict,
// and counts the rows in Stats().MismatchedRows.
func (f *Forest) PredictMatrix(m *RowMatrix, out []float64) []float64 {
	n := m.rows
	if len(out) != n {
		out = make([]float64, n)
	} else {
		for i := range out {
			out[i] = 0
		}
	}
	f.passes.Add(1)
	f.rowsIn.Add(int64(n))
	if m.nFeat != f.nFeat {
		f.mismatched.Add(int64(n))
		return out
	}
	if n == 0 {
		return out
	}

	box, idx := f.frontier(n)
	data := m.data
	nodes, val := f.bfsNodes, f.bfsVal
	for t, root := range f.bfsRoots {
		dep := f.bfsDepth[t]
		if dep == 0 {
			// Single-leaf tree: every row lands on the root.
			v := val[root]
			for r := range out {
				out[r] += v
			}
			continue
		}
		// Level 0 reads one node for the whole batch, so its feature column
		// is a sequential scan and the node loads hoist out of the loop.
		rn := nodes[root]
		lo0, hi0 := rn.lo, rn.lo+1
		col := data[int(rn.feat)*n : int(rn.feat)*n+n]
		if dep == 1 {
			// Both children are leaves: fold the accumulate in too.
			vlo, vhi := val[lo0], val[hi0]
			for r, v := range col {
				w := vlo
				if v > rn.thr {
					w = vhi
				}
				out[r] += w
			}
			continue
		}
		for r, v := range col {
			k := lo0
			if v > rn.thr {
				k = hi0
			}
			idx[r] = k
		}
		for d := int32(1); d < dep-1; d++ {
			for r, i := range idx {
				nd := nodes[i]
				lo := nd.lo
				hi := lo + 1
				if data[int(nd.feat)*n+r] > nd.thr {
					lo = hi
				}
				idx[r] = lo
			}
		}
		// Final level: the advanced-to node is always a leaf (real or
		// sentinel), so accumulate its value directly instead of writing
		// the frontier and re-reading it.
		for r, i := range idx {
			nd := nodes[i]
			lo := nd.lo
			hi := lo + 1
			if data[int(nd.feat)*n+r] > nd.thr {
				lo = hi
			}
			out[r] += val[lo]
		}
	}
	nt := float64(len(f.bfsRoots))
	for r := range out {
		out[r] /= nt
	}
	f.releaseFrontier(box)
	return out
}

// frontier leases an n-row active-frontier scratch from the forest's pool.
// The *[]int32 box travels with the slice so a steady-state lease/release
// cycle allocates nothing.
func (f *Forest) frontier(n int) (*[]int32, []int32) {
	box, _ := f.scratch.Get().(*[]int32)
	if box == nil {
		box = new([]int32)
	}
	s := *box
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	*box = s
	return box, s
}

// releaseFrontier returns a frontier to the pool.
func (f *Forest) releaseFrontier(box *[]int32) {
	f.scratch.Put(box)
}
