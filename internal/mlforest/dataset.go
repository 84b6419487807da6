package mlforest

import (
	"fmt"
	"math"
	"slices"
)

// maxLevels is the most distinct training values a feature may have: a
// row's rank among them must fit a uint16 code.
const maxLevels = math.MaxUint16

// dataset is the rank-coded view of one training matrix, built once and
// shared read-only across every tree builder. levels[f] holds feature f's
// distinct training values in ascending order, and codes[r*nFeat+f] is
// row r's rank among them, so v <= levels[f][c] exactly when v's code is
// at most c. Targets live outside the dataset — the long-term predictor
// trains percentile and max forests on one feature matrix with different
// target vectors (Matrix/TrainOnMatrix), so the coding is paid once per
// matrix, not once per forest.
//
// The codes are the heart of the training engine (docs/DESIGN.md §8):
// a node's split search is one pass filling per-code histograms and a
// prefix sweep over them, so no sort of values ever runs inside tree
// growth.
type dataset struct {
	levels [][]float64
	codes  []uint16
	nFeat  int
	n      int
}

// newDataset codes row-major feature vectors. An empty, featureless or
// ragged matrix is an error, as is a NaN (it has no rank) or a feature
// with more than maxLevels distinct values (its code would overflow).
func newDataset(rows [][]float64) (*dataset, error) {
	n := len(rows)
	if n == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("mlforest: empty training matrix")
	}
	nFeat := len(rows[0])
	for i, r := range rows {
		if len(r) != nFeat {
			return nil, fmt.Errorf("mlforest: matrix row %d has %d features, want %d", i, len(r), nFeat)
		}
	}
	ds := &dataset{levels: make([][]float64, nFeat), codes: make([]uint16, n*nFeat), nFeat: nFeat, n: n}
	col := make([]float64, n)
	for f := range ds.levels {
		for r, row := range rows {
			if math.IsNaN(row[f]) {
				return nil, fmt.Errorf("mlforest: row %d feature %d is NaN", r, f)
			}
			col[r] = row[f]
		}
		// Sorting puts -0 beside 0 and Compact merges them (they are
		// equal), so the levels ascend strictly.
		slices.Sort(col)
		levels := slices.Clone(slices.Compact(col))
		if len(levels) > maxLevels {
			return nil, fmt.Errorf("mlforest: feature %d has %d distinct values, more than %d", f, len(levels), maxLevels)
		}
		for r, row := range rows {
			c, _ := slices.BinarySearch(levels, row[f])
			ds.codes[r*nFeat+f] = uint16(c)
		}
		ds.levels[f] = levels
	}
	return ds, nil
}
