package mlforest

import (
	"fmt"
	"math"
)

// This file implements the level-synchronous inference schedule
// (docs/DESIGN.md §14). Each tree's block of the node slab is ordered
// breadth-first and its leaves self-loop on a NaN pad column (see node), so
// PredictSweep advances many walks ("lanes") through a block of trees one
// level per step — one tight compare-and-advance loop across all lanes, no
// per-lane leaf checks, no data-dependent control flow beyond compares the
// compiler turns into conditional moves — and the serial pointer-chase
// latency of a row-at-a-time walk is replaced by independent per-lane
// steps the CPU can overlap, even when the batch is a single row. Rows
// that differ only in the swept feature share every node above the first
// split on it, so a lane carries all of a row's values from the root and
// parts only where a swept threshold separates them.
//
// The accumulation order is exactly Predict's: every (row, value) cell
// adds tree t's leaf before tree t+1's, and the final division by the
// ensemble size is the same single operation. Predict, PredictMatrix and
// PredictSweep are therefore bit-identical — pinned by the equivalence
// wall in matrix_test.go against an independent pointer walk over the
// grown trees.

// RowMatrix is a feature-major batch of prediction inputs: column f holds
// every row's value of feature f contiguously (data[f*rows+r]). One more
// column, at nFeat, is all NaN: every leaf reads it, and NaN exceeds no
// threshold, so a lane on a leaf stays there. The batched prediction
// paths carve it from one flat buffer — Reset reuses the backing array
// across batches — so a serving-rate stream of fleet-sized what-if
// batches allocates nothing in steady state.
//
// A RowMatrix is not safe for concurrent mutation; fill it, then hand it
// to PredictSweep or PredictMatrix (which only read it).
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

// Reset resizes the matrix for a new batch, reusing the backing buffer
// when it is large enough, and fills the pad column with NaN. Other cells
// are unspecified after Reset; callers must fill every row they submit.
func (m *RowMatrix) Reset(rows, nFeat int) {
	need := rows * (nFeat + 1)
	if cap(m.data) < need {
		m.data = make([]float64, need)
	}
	m.data = m.data[:need]
	m.rows, m.nFeat = rows, nFeat
	for i := rows * nFeat; i < need; i++ {
		m.data[i] = math.NaN()
	}
}

// SetRow scatters one row-major feature vector into the matrix's columns.
// feats must have exactly the matrix's feature count of values.
func (m *RowMatrix) SetRow(r int, feats []float64) {
	if len(feats) != m.nFeat {
		panic(fmt.Sprintf("mlforest: SetRow with %d features, want %d", len(feats), m.nFeat))
	}
	for f, v := range feats {
		m.data[f*m.rows+r] = v
	}
}

// PredictMatrix predicts every row of the batch: the sweep of no feature.
// Results are bit-identical to calling Predict per row.
func (f *Forest) PredictMatrix(m *RowMatrix, out []float64) []float64 {
	return f.PredictSweep(m, -1, oneValue[:], out)
}

// oneValue is what PredictMatrix sweeps: no node is on feature -1, so the
// value is never compared.
var oneValue [1]float64

// laneTarget is how many lanes a block of trees starts with: enough
// independent node loads per level to cover the latency of a model that
// does not fit in cache, few enough that the lane state stays in L1.
const laneTarget = 256

// lane is one walk in flight: a row descending one tree, carrying the
// contiguous range vals[a:b] of swept values that have taken the same
// branches so far.
type lane struct {
	node int32 // slab index the lane stands on
	row  int32 // matrix row whose cells steer it at unswept nodes
	cell int32 // index of (tree, row, value 0) in the block's cell slab
	a, b uint8
}

// note records that a lane stood on a node that splits on the swept
// feature, so partLanes steps it by its values instead.
type note struct{ lane, node int32 }

// sweepScratch is one PredictSweep call's working set, pooled per forest
// and sized for a block whose every lane parts fully.
type sweepScratch struct {
	lanes []lane
	noted []note
	leaf  []float64 // leaf value each lane of a block ended on
	cells []float64 // the same per (tree, row, value), in out's order
}

// PredictSweep predicts every row of m at every value of one swept
// feature in one level-synchronous ensemble pass: out[r*len(vals)+w] is
// what Predict returns for row r with feature feat set to vals[w] (m's own
// column feat is ignored). It writes into out when it has rows×len(vals)
// cells (allocating otherwise) and returns the slice used. A negative feat
// sweeps nothing. vals must be 1–255 strictly ascending non-NaN values;
// anything else panics. A matrix whose width does not match the trained
// forest, or a feat beyond it, predicts 0 for every cell, as in Predict,
// and counts the cells in Stats().MismatchedRows.
func (f *Forest) PredictSweep(m *RowMatrix, feat int, vals []float64, out []float64) []float64 {
	nv := len(vals)
	for i, v := range vals {
		if v != v || i > 0 && !(v > vals[i-1]) {
			panic(fmt.Sprintf("mlforest: PredictSweep values not strictly ascending at %d: %v", i, vals))
		}
	}
	if nv < 1 || nv > math.MaxUint8 {
		panic(fmt.Sprintf("mlforest: PredictSweep over %d values, want 1-255", nv))
	}
	n := m.rows
	cells := n * nv
	if len(out) != cells {
		out = make([]float64, cells)
	} else {
		clear(out)
	}
	f.passes.Add(1)
	f.rowsIn.Add(int64(cells))
	if m.nFeat != f.nFeat || feat >= f.nFeat {
		f.mismatched.Add(int64(cells))
		return out
	}
	if n == 0 {
		return out
	}

	// Trees advance together in blocks of about laneTarget starting lanes.
	block := min(max(laneTarget/n, 1), len(f.roots))
	if block*cells > math.MaxInt32 {
		panic(fmt.Sprintf("mlforest: PredictSweep of %d rows x %d values overflows the lane index", n, nv))
	}
	sc, _ := f.scratch.Get().(*sweepScratch)
	if sc == nil {
		sc = &sweepScratch{}
	}
	if cap(sc.cells) < block*cells {
		// partLanes writes the would-be second lane before it knows whether
		// to keep it, hence the spare slot.
		sc.lanes = make([]lane, block*cells+1)
		sc.noted = make([]note, block*cells)
		sc.cells = make([]float64, block*cells)
		sc.leaf = make([]float64, block*cells)
	}
	lanes, noted := sc.lanes, sc.noted
	var landed int
	for t0 := 0; t0 < len(f.roots); t0 += block {
		trees := f.roots[t0:min(t0+block, len(f.roots))]
		live, levels := 0, int32(0)
		for t, root := range trees {
			levels = max(levels, f.depth[t0+t])
			for r := 0; r < n; r++ {
				lanes[live] = lane{node: root, row: int32(r), cell: int32(live * nv), b: uint8(nv)}
				live++
			}
		}
		for ; levels > 0; levels-- {
			swept := stepLanes(lanes[:live], f.nodes, m.data, n, int32(feat), noted)
			live = partLanes(lanes, live, noted[:swept], f.nodes, vals)
		}
		landLanes(lanes[:live], f.nodes, sc.leaf[:live], sc.cells)
		landed += live
		// Fold tree by tree, so every cell accumulates in Predict's order.
		for t := range trees {
			for c, v := range sc.cells[t*cells : (t+1)*cells] {
				out[c] += v
			}
		}
	}
	f.lanes.Add(int64(landed))
	nt := float64(len(f.roots))
	for c := range out {
		out[c] /= nt
	}
	f.scratch.Put(sc)
	return out
}

// stepLanes advances every lane one level by its own row's cell, exactly
// as Predict does, and notes the lanes whose node splits on the swept
// feature for partLanes to step again from that node. Noting is
// branch-free: store, then conditionally advance the cursor. The lane
// loops are their own small functions so their live values fit in
// registers.
func stepLanes(lanes []lane, nodes []node, data []float64, n int, feat int32, noted []note) int {
	swept := 0
	for i := range lanes {
		l := &lanes[i]
		at := l.node
		noted[swept] = note{lane: int32(i), node: at}
		nd := nodes[at]
		next := nd.Lo
		hi := next + 1
		if data[int(nd.Feat)*n+int(l.row)] > nd.Thr {
			next = hi
		}
		if nd.Feat == feat {
			swept++
		}
		l.node = next
	}
	return swept
}

// partLanes steps the noted lanes by the swept values they carry instead
// of their row's cell: values not above the threshold continue to Lo, the
// rest to Lo+1, on a second lane (appended at live) only when both sides
// are non-empty. vals ascends, so each side is a contiguous range and the
// parting point is the count of values not above the threshold, clamped
// into the lane's range (O(len(vals)) per noted lane). Leaves read the pad
// column, never the swept feature, so they are never noted.
func partLanes(lanes []lane, live int, noted []note, nodes []node, vals []float64) int {
	for _, nt := range noted {
		l := &lanes[nt.lane]
		nd := nodes[nt.node]
		stay := uint8(0)
		for _, v := range vals {
			if !(v > nd.Thr) {
				stay++
			}
		}
		a, b := l.a, l.b
		p := min(max(stay, a), b)
		lanes[live] = lane{node: nd.Lo + 1, row: l.row, cell: l.cell, a: p, b: b}
		if a < p && p < b {
			live++
		}
		if p > a {
			l.node, l.b = nd.Lo, p
		} else {
			l.node = nd.Lo + 1
		}
	}
	return live
}

// landLanes hands every cell a lane carries the leaf value (Thr) the lane
// ended on. The leaf loads come first, on their own, so their cache misses
// overlap; the ragged cell fill that follows mispredicts and would
// serialize them.
func landLanes(lanes []lane, nodes []node, leaf []float64, cells []float64) {
	for i := range lanes {
		leaf[i] = nodes[lanes[i].node].Thr
	}
	for i := range lanes {
		l := &lanes[i]
		v := leaf[i]
		for c := int(l.cell) + int(l.a); c < int(l.cell)+int(l.b); c++ {
			cells[c] = v
		}
	}
}
