package mlforest

import "fmt"

// This file implements the level-synchronous inference schedule
// (docs/DESIGN.md §14). Each tree's block of the node slab is ordered
// breadth-first and its leaves are self-looping sentinels (see node), so
// PredictMatrix advances an entire batch of rows through a tree one level
// per step — one tight compare-and-advance loop across all rows, no
// per-row leaf checks, no data-dependent control flow beyond a single
// compare the compiler turns into a conditional move — and the serial
// pointer-chase latency of a row-at-a-time walk is replaced by independent
// per-row steps the CPU can overlap.
//
// The accumulation order is exactly Predict's: trees evaluate in training
// order, each row's running sum adds tree t's leaf before tree t+1's, and
// the final division by the ensemble size is the same single operation.
// Predict and PredictMatrix are therefore bit-identical — pinned by the
// equivalence wall in matrix_test.go against an independent pointer walk
// over the grown trees.

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
	nodes, val := f.nodes, f.value
	for t, root := range f.roots {
		dep := f.depth[t]
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
		lo0, hi0 := rn.Lo, rn.Lo+1
		col := data[int(rn.Feat)*n : int(rn.Feat)*n+n]
		if dep == 1 {
			// Both children are leaves: fold the accumulate in too.
			vlo, vhi := val[lo0], val[hi0]
			for r, v := range col {
				w := vlo
				if v > rn.Thr {
					w = vhi
				}
				out[r] += w
			}
			continue
		}
		for r, v := range col {
			k := lo0
			if v > rn.Thr {
				k = hi0
			}
			idx[r] = k
		}
		for d := int32(1); d < dep-1; d++ {
			for r, i := range idx {
				nd := nodes[i]
				lo := nd.Lo
				hi := lo + 1
				if data[int(nd.Feat)*n+r] > nd.Thr {
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
			lo := nd.Lo
			hi := lo + 1
			if data[int(nd.Feat)*n+r] > nd.Thr {
				lo = hi
			}
			out[r] += val[lo]
		}
	}
	nt := float64(len(f.roots))
	for r := range out {
		out[r] /= nt
	}
	f.scratch.Put(box)
	return out
}

// frontier leases an n-row active-frontier scratch from the forest's pool.
// The *[]int32 box travels with the slice and goes back with scratch.Put,
// so a steady-state lease/release cycle allocates nothing.
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
