package predict

import (
	"bytes"
	"encoding/gob"
	"testing"

	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/trace"
)

// referencePredict is the per-row reference PredictBatchInto (and so
// Predict, its one-VM call) is held to: the §3.3 decision spelled out for
// one VM — own observed series, else the history gate, else the forests —
// with every (resource, window, target) cell its own Forest.Predict row
// walk and quantisation. No matrix, no batch, no shared scratch.
func referencePredict(lt *LongTerm, tr *trace.Trace, vm *trace.VM) (coachvm.Prediction, bool) {
	pred := coachvm.Prediction{Windows: lt.cfg.Windows, Percentile: lt.cfg.Percentile}
	if visible := visibleSamples(vm, lt.upTo); visible >= lt.cfg.MinSamples {
		u := vm.Runs.Prefix(visible)
		pcts, maxes := u.WindowPercentile(lt.cfg.Windows, lt.cfg.Percentile), u.LifetimeWindowMax(lt.cfg.Windows)
		for _, k := range resources.Kinds {
			pred.Pct[k] = quantizeAll(pcts[k], lt.cfg.SafetyBuckets)
			pred.Max[k] = quantizeAll(maxes[k], lt.cfg.SafetyBuckets)
		}
		pred.Clamp()
		return pred, true
	}
	if lt.HistoryCount(vm.Subscription) < lt.cfg.MinHistory {
		return pred, false
	}
	for _, k := range resources.Kinds {
		pred.Pct[k] = make([]float64, lt.cfg.Windows.PerDay)
		pred.Max[k] = make([]float64, lt.cfg.Windows.PerDay)
		feats := make([]float64, featureDim)
		for w := 0; w < lt.cfg.Windows.PerDay; w++ {
			lt.featuresInto(feats, tr, vm, lt.history[vm.Subscription], k, w)
			pred.Pct[k][w] = quantize(lt.pctForest[k].Predict(feats), lt.cfg.SafetyBuckets)
			pred.Max[k][w] = quantize(lt.maxForest[k].Predict(feats), lt.cfg.SafetyBuckets)
		}
	}
	pred.Clamp()
	return pred, true
}

// TestPredictBatchMatrixEquivalence is the predict half of the
// level-synchronous equivalence wall: with PredictBatchInto feeding the
// forests through the feature-major matrix path, every scenario preset's
// batched predictions must stay gob-byte-identical to the per-row
// reference at each required batch size, and so must Predict, its batch
// of one. Run under -race in CI, this also races the pooled matrix
// scratch across parallel presets.
func encodePredictions(t *testing.T, preds []coachvm.Prediction, oks []bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		P  []coachvm.Prediction
		OK []bool
	}{preds, oks}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

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
			for _, n := range []int{1, 2, 7, 64, 4096} {
				vms := make([]*trace.VM, n)
				for i := range vms {
					vms[i] = &tr.VMs[i%len(tr.VMs)]
				}
				gotPred, gotOK := make([]coachvm.Prediction, n), make([]bool, n)
				lt.PredictBatchInto(tr, vms, gotPred, gotOK)
				wantPred := make([]coachvm.Prediction, n)
				wantOK := make([]bool, n)
				onePred := make([]coachvm.Prediction, n)
				oneOK := make([]bool, n)
				for i, vm := range vms {
					wantPred[i], wantOK[i] = referencePredict(lt, tr, vm)
					if i < len(tr.VMs) { // later entries repeat the population
						onePred[i], oneOK[i] = lt.Predict(tr, vm)
					} else {
						onePred[i], oneOK[i] = wantPred[i], wantOK[i]
					}
					if wantOK[i] && wantPred[i].Pct[0] != nil && n == 4096 {
						forestRows++
					}
				}
				want := encodePredictions(t, wantPred, wantOK)
				if !bytes.Equal(encodePredictions(t, gotPred, gotOK), want) {
					t.Fatalf("batch %d: PredictBatchInto diverges from the per-row reference", n)
				}
				if !bytes.Equal(encodePredictions(t, onePred, oneOK), want) {
					t.Fatalf("batch %d: per-VM Predict diverges from the per-row reference", n)
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
