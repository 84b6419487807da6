package predict

import (
	"bytes"
	"encoding/gob"
	"testing"

	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/trace"
)

// TestPredictBatchMatrixEquivalence is the predict half of the
// level-synchronous equivalence wall: with PredictBatchInto feeding the
// forests through the feature-major matrix path, every scenario preset's
// batched predictions must stay gob-byte-identical to per-VM Predict at
// each required batch size. Run under -race in CI, this also races the
// pooled matrix scratch across parallel presets.
func TestPredictBatchMatrixEquivalence(t *testing.T) {
	for _, name := range scenario.PresetNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			full, err := scenario.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			sp := full.Scaled(220, 22)
			tr, err := trace.GenerateScenario(sp)
			if err != nil {
				t.Fatal(err)
			}
			lt, err := TrainLongTerm(tr, tr.Horizon/2, DefaultLongTermConfig())
			if err != nil {
				t.Fatal(err)
			}

			// Every VM participates — own-history, insufficient-history and
			// fresh forest-path VMs alike — cycling the population to fill
			// the largest batch.
			forestRows := 0
			for _, n := range []int{1, 7, 64, 4096} {
				vms := make([]*trace.VM, n)
				for i := range vms {
					vms[i] = &tr.VMs[i%len(tr.VMs)]
				}
				gotPred, gotOK := make([]coachvm.Prediction, n), make([]bool, n)
				lt.PredictBatchInto(tr, vms, gotPred, gotOK)
				wantPred := make([]coachvm.Prediction, n)
				wantOK := make([]bool, n)
				for i, vm := range vms {
					wantPred[i], wantOK[i] = lt.Predict(tr, vm)
					if wantOK[i] && wantPred[i].Pct[0] != nil && n == 4096 {
						forestRows++
					}
				}
				var got, want bytes.Buffer
				if err := gob.NewEncoder(&got).Encode(struct {
					P  []coachvm.Prediction
					OK []bool
				}{gotPred, gotOK}); err != nil {
					t.Fatal(err)
				}
				if err := gob.NewEncoder(&want).Encode(struct {
					P  []coachvm.Prediction
					OK []bool
				}{wantPred, wantOK}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("batch %d: PredictBatchInto diverges from per-VM Predict", n)
				}
			}
			if forestRows == 0 {
				t.Fatal("fixture regression: no VM was predicted at all")
			}
			if s := lt.InferenceStats(); s.MismatchedRows != 0 || s.Rows == 0 {
				t.Fatalf("inference stats %+v: want forest rows and no mismatches", s)
			}
		})
	}
}
