// Package predict implements Coach's two predictors:
//
//   - The long-term, cluster-level model (§3.3): a random-forest regressor
//     that predicts per-time-window percentile and maximum utilization for
//     each resource of a new VM from VM- and customer-specific features,
//     quantized to 5% buckets. It feeds the scheduling policy.
//   - The local, server-level two-level model (§3.4): an EWMA forecasting
//     the next 20 seconds and an online-trained LSTM forecasting the next
//     5 minutes. It feeds proactive contention mitigation.
package predict

import (
	"fmt"
	"math"
	"sync"

	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/mlforest"
	"github.com/coach-oss/coach/internal/par"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/stats"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

// LongTermConfig configures training of the cluster-level model.
type LongTermConfig struct {
	// Windows is the per-day time-window split (Coach default: 6x4h).
	Windows timeseries.Windows
	// Percentile is the PX used for the guaranteed portion (default 95).
	Percentile float64
	// Forest configures each per-resource regressor.
	Forest mlforest.ForestConfig
	// MinHistory is the minimum number of prior same-subscription VMs
	// required before Coach will oversubscribe a VM (§3.3: "If there is
	// insufficient data to predict a VM, we conservatively do not
	// oversubscribe it").
	MinHistory int
	// MinSamples is the minimum series length (in 5-minute samples) for a
	// VM to contribute training rows; defaults to one day.
	MinSamples int
	// SafetyBuckets is the number of extra 5% buckets added on top of
	// each quantized prediction. Coach prioritizes protecting workload
	// performance over savings (G2, §3.3): under-predictions are far more
	// costly than over-predictions, so the deployed configuration biases
	// the regressor's point estimate upward by one bucket.
	SafetyBuckets int
}

// DefaultLongTermConfig returns Coach's deployed configuration: P95
// predictions over six 4-hour windows (§3.3 "Coach configuration").
func DefaultLongTermConfig() LongTermConfig {
	return LongTermConfig{
		Windows:       timeseries.Windows{PerDay: 6},
		Percentile:    95,
		Forest:        mlforest.DefaultForestConfig(),
		MinHistory:    3,
		MinSamples:    timeseries.SamplesPerDay,
		SafetyBuckets: 1,
	}
}

// subscriptionHistory aggregates the observed behaviour of a subscription's
// earlier VMs: the model's customer-specific features (§3.3).
type subscriptionHistory struct {
	count    int
	meanPeak [resources.NumKinds]float64 // mean lifetime max utilization
	meanMean [resources.NumKinds]float64 // mean of mean utilization
}

// featureDim is the length of the model's feature vector. Layout:
//
//	0: cores                5: weekday of allocation (0-6)
//	1: memory GB            6: window index
//	2: GB per core          7: history count (log1p)
//	3: offering (0/1)       8: history mean peak (this resource)
//	4: subscription type    9: history mean of means (this resource)
const featureDim = 10

// featWindow is the window-index slot: the one feature that differs
// between a VM's per-window rows, so prediction sweeps it.
const featWindow = 6

// LongTerm is a trained cluster-level utilization predictor.
type LongTerm struct {
	cfg  LongTermConfig
	upTo int // end of the training period, in trace samples
	// pctForest[k] predicts the PX utilization of resource k in a window;
	// maxForest[k] predicts the window maximum.
	pctForest [resources.NumKinds]*mlforest.Forest
	maxForest [resources.NumKinds]*mlforest.Forest
	history   map[int]*subscriptionHistory
	trainRows int
	// windowVals is 0…PerDay−1, the values featWindow is swept over.
	windowVals []float64
	// scratch recycles PredictBatchInto working buffers across batches
	// (the serving hot path calls it continuously); see batchScratch.
	scratch sync.Pool
}

// batchScratch is the reusable working set of one PredictBatchInto call:
// which VMs take the forest path (and their subscription histories), the
// feature-major input matrix (one row per such VM), a staging row for
// assembling one feature vector at a time, and the raw forest outputs.
// Only buffers not retained by the returned Predictions live here.
type batchScratch struct {
	fresh  []freshVM
	m      mlforest.RowMatrix
	row    [featureDim]float64
	pctOut []float64
	maxOut []float64
}

// freshVM is a batch entry needing a forest evaluation: its index into
// the batch and its subscription's history, looked up once.
type freshVM struct {
	i int
	h *subscriptionHistory
}

// TrainLongTerm fits the model on every VM of tr that ends (or is fully
// observed) before upToSample — the paper trains on the first week and
// evaluates on the second (§2.3, Fig. 12). Utilization after upToSample is
// never consulted.
func TrainLongTerm(tr *trace.Trace, upToSample int, cfg LongTermConfig) (*LongTerm, error) {
	if err := cfg.Windows.Validate(); err != nil {
		return nil, err
	}
	if cfg.Percentile <= 0 || cfg.Percentile > 100 {
		return nil, fmt.Errorf("predict: percentile %f outside (0,100]", cfg.Percentile)
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = timeseries.SamplesPerDay
	}

	lt := &LongTerm{cfg: cfg, upTo: upToSample, history: make(map[int]*subscriptionHistory)}
	for t := 0; t < cfg.Windows.PerDay; t++ {
		lt.windowVals = append(lt.windowVals, float64(t))
	}

	// Preparation runs on every core and stays byte-identical: each VM's
	// statistics, targets and feature rows are computed into slots it
	// alone writes, and everything order-sensitive — the history's float
	// sums, the row order of each matrix — is folded in VM order.
	//
	// First pass: each visible VM's lifetime max and mean per resource.
	type vmStats struct {
		visible    int
		peak, mean [resources.NumKinds]float64
	}
	st := make([]vmStats, len(tr.VMs))
	par.ForEach(0, len(tr.VMs), func(i int) {
		vm := &tr.VMs[i]
		visible := visibleSamples(vm, upToSample)
		if visible < cfg.MinSamples {
			return
		}
		st[i].visible = visible
		u := vm.Runs.Prefix(visible)
		for _, k := range resources.Kinds {
			st[i].peak[k] = u.Max(k)
			st[i].mean[k] = u.Mean(k)
		}
	})

	// Fold the subscription history in VM order, and give each training
	// VM its first row: every one contributes PerDay rows per resource.
	w := cfg.Windows.PerDay
	rowStart := make([]int, len(tr.VMs))
	rows := 0
	for i := range tr.VMs {
		if st[i].visible == 0 {
			continue
		}
		sub := tr.VMs[i].Subscription
		h := lt.history[sub]
		if h == nil {
			h = &subscriptionHistory{}
			lt.history[sub] = h
		}
		for _, k := range resources.Kinds {
			h.meanPeak[k] += st[i].peak[k]
			h.meanMean[k] += st[i].mean[k]
		}
		h.count++
		rowStart[i] = rows
		rows += w
	}
	for _, h := range lt.history {
		for _, k := range resources.Kinds {
			h.meanPeak[k] /= float64(h.count)
			h.meanMean[k] /= float64(h.count)
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("predict: no training rows (horizon %d, upTo %d)", tr.Horizon, upToSample)
	}
	lt.trainRows = rows * int(resources.NumKinds)

	// Second pass: one training row per (VM, window) with targets from
	// the observed series, each VM writing its own rows. The percentile
	// and max forests share each resource's feature rows — only their
	// target vectors differ — so the rows are kept once per resource and
	// both forests train on one coded matrix below.
	var featRows [resources.NumKinds][][]float64
	var pctTargets, maxTargets [resources.NumKinds][]float64
	for _, k := range resources.Kinds {
		slab := make([]float64, rows*featureDim)
		featRows[k] = make([][]float64, rows)
		for r := range featRows[k] {
			featRows[k][r] = slab[r*featureDim : (r+1)*featureDim : (r+1)*featureDim]
		}
		pctTargets[k] = make([]float64, rows)
		maxTargets[k] = make([]float64, rows)
	}
	par.ForEach(0, len(tr.VMs), func(i int) {
		if st[i].visible == 0 {
			return
		}
		vm := &tr.VMs[i]
		h := lt.history[vm.Subscription]
		r0 := rowStart[i]
		u := vm.Runs.Prefix(st[i].visible)
		pcts, maxes := u.WindowPercentile(cfg.Windows, cfg.Percentile), u.LifetimeWindowMax(cfg.Windows)
		for _, k := range resources.Kinds {
			copy(pctTargets[k][r0:r0+w], pcts[k])
			copy(maxTargets[k][r0:r0+w], maxes[k])
			for t := 0; t < w; t++ {
				lt.featuresInto(featRows[k][r0+t], tr, vm, h, k, t)
			}
		}
	})

	// One coded matrix per resource, shared by both forests; the
	// four matrices build concurrently. A matrix keeps only codes, so the
	// rows are dropped once it is built, and the matrix once its forests
	// are trained.
	var mats [resources.NumKinds]*mlforest.Matrix
	var errs [resources.NumKinds]error
	par.ForEach(0, len(mats), func(k int) {
		mats[k], errs[k] = mlforest.NewMatrix(featRows[k])
		featRows[k] = nil
	})
	for _, k := range resources.Kinds {
		if errs[k] != nil {
			return nil, errs[k]
		}
		fc := cfg.Forest
		fc.Seed = cfg.Forest.Seed + int64(k)
		pf, err := mlforest.TrainOnMatrix(mats[k], pctTargets[k], fc)
		if err != nil {
			return nil, err
		}
		fc.Seed += 100
		mf, err := mlforest.TrainOnMatrix(mats[k], maxTargets[k], fc)
		if err != nil {
			return nil, err
		}
		lt.pctForest[k] = pf
		lt.maxForest[k] = mf
		mats[k] = nil
	}
	return lt, nil
}

func visibleSamples(vm *trace.VM, upToSample int) int {
	if vm.Start >= upToSample {
		return 0
	}
	end := vm.End
	if end > upToSample {
		end = upToSample
	}
	return end - vm.Start
}

// featuresInto fills a caller-provided featureDim-length buffer with the
// feature vector for one (VM, resource, window); h is the VM's
// subscription history (nil when it has none), looked up by the caller
// so the batched prediction path pays for it once per VM.
func (lt *LongTerm) featuresInto(f []float64, tr *trace.Trace, vm *trace.VM, h *subscriptionHistory, k resources.Kind, window int) {
	f[0] = vm.Cores()
	f[1] = vm.MemoryGB()
	f[2] = vm.MemoryGB() / vm.Cores()
	f[3] = float64(vm.Offering)
	f[4] = float64(tr.Subscriptions[vm.Subscription].Type)
	f[5] = float64(tr.WeekdayAt(vm.Start))
	f[featWindow] = float64(window)
	if h != nil {
		f[7] = math.Log1p(float64(h.count))
		f[8] = h.meanPeak[k]
		f[9] = h.meanMean[k]
	} else {
		f[7], f[8], f[9] = 0, 0, 0
	}
}

// HistoryCount returns how many prior VMs the model saw for a subscription.
func (lt *LongTerm) HistoryCount(subscription int) int {
	if h := lt.history[subscription]; h != nil {
		return h.count
	}
	return 0
}

// TrainRows returns the number of (VM, resource, window) training rows.
func (lt *LongTerm) TrainRows() int { return lt.trainRows }

// InferenceStats sums the inference counters of every underlying forest:
// total ensemble passes, feature rows evaluated, and rows rejected for
// feature-dimension mismatch (any nonzero MismatchedRows means a
// feature-schema bug that would otherwise read as confident
// zero-utilization predictions).
func (lt *LongTerm) InferenceStats() mlforest.Stats {
	var s mlforest.Stats
	for _, k := range resources.Kinds {
		for _, f := range [...]*mlforest.Forest{lt.pctForest[k], lt.maxForest[k]} {
			if f == nil {
				continue
			}
			fs := f.Stats()
			s.Passes += fs.Passes
			s.Rows += fs.Rows
			s.MismatchedRows += fs.MismatchedRows
			s.Lanes += fs.Lanes
		}
	}
	return s
}

// MemoryBytes estimates the resident model size (§4.5 reports 186MB at
// production scale; ours scales with trace size).
func (lt *LongTerm) MemoryBytes() int {
	var total int
	for _, k := range resources.Kinds {
		if lt.pctForest[k] != nil {
			total += lt.pctForest[k].MemoryBytes()
		}
		if lt.maxForest[k] != nil {
			total += lt.maxForest[k].MemoryBytes()
		}
	}
	return total
}

// Predict returns the per-window prediction for a VM, quantized up to 5%
// buckets: the one-VM call of PredictBatchInto. ok is false when the VM's
// subscription lacks sufficient history, in which case the caller must not
// oversubscribe the VM (§3.3).
func (lt *LongTerm) Predict(tr *trace.Trace, vm *trace.VM) (coachvm.Prediction, bool) {
	var pred [1]coachvm.Prediction
	var ok [1]bool
	lt.PredictBatchInto(tr, []*trace.VM{vm}, pred[:], ok[:])
	return pred[0], ok[0]
}

// PredictBatchInto predicts a batch of VMs, writing into caller-owned
// slices (both len(vms), entries fully overwritten) so a caller — the
// simulator's arrival phase fills each shard's prediction slots 64 at a
// time — pays no per-batch result allocation beyond the prediction
// windows themselves.
//
// A VM that has already run for at least a day within the training period
// is predicted from its own observed utilization (the platform telemetry
// keeps accumulating per-VM data, and VM behaviour is consistent day over
// day — Fig. 9); only fresh VMs fall back to the cross-VM forests. A VM's
// per-window feature rows differ only in featWindow, so each fresh VM is
// one matrix row and each forest answers all of the batch's (VM, window)
// cells in one mlforest.Forest.PredictSweep of that feature. This is the
// only prediction body: the simulator's per-arrival Predict, core's
// platform and the serving layer's predictions and admissions all run
// it, and a VM's prediction does not depend on what it was batched with.
func (lt *LongTerm) PredictBatchInto(tr *trace.Trace, vms []*trace.VM, preds []coachvm.Prediction, oks []bool) {
	sc, _ := lt.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	defer lt.scratch.Put(sc)

	// First pass: resolve VMs predictable from their own observed series
	// or rejected for insufficient history; collect the forest-path rest.
	sc.fresh = sc.fresh[:0]
	for i, vm := range vms {
		// Fully overwrite the caller's (possibly reused) entries.
		preds[i] = coachvm.Prediction{Windows: lt.cfg.Windows, Percentile: lt.cfg.Percentile}
		oks[i] = false
		if visible := visibleSamples(vm, lt.upTo); visible >= lt.cfg.MinSamples {
			u := vm.Runs.Prefix(visible)
			pcts, maxes := u.WindowPercentile(lt.cfg.Windows, lt.cfg.Percentile), u.LifetimeWindowMax(lt.cfg.Windows)
			for _, k := range resources.Kinds {
				preds[i].Pct[k] = quantizeAll(pcts[k], lt.cfg.SafetyBuckets)
				preds[i].Max[k] = quantizeAll(maxes[k], lt.cfg.SafetyBuckets)
			}
			preds[i].Clamp()
			oks[i] = true
			continue
		}
		h := lt.history[vm.Subscription]
		if h == nil || h.count < lt.cfg.MinHistory {
			continue
		}
		oks[i] = true
		sc.fresh = append(sc.fresh, freshVM{i, h})
	}
	if len(sc.fresh) == 0 {
		return
	}

	// Second pass: one sweep per (resource, target) over every fresh VM.
	// Only the window slices handed back inside Predictions are freshly
	// allocated, all from one slab.
	w := lt.cfg.Windows.PerDay
	n := len(sc.fresh)
	sc.m.Reset(n, featureDim)
	if cap(sc.pctOut) < n*w {
		sc.pctOut, sc.maxOut = make([]float64, n*w), make([]float64, n*w)
	}
	sc.pctOut, sc.maxOut = sc.pctOut[:n*w], sc.maxOut[:n*w]
	windows := make([]float64, 2*int(resources.NumKinds)*n*w)
	for _, k := range resources.Kinds {
		for bi, fv := range sc.fresh {
			lt.featuresInto(sc.row[:], tr, vms[fv.i], fv.h, k, 0)
			sc.m.SetRow(bi, sc.row[:])
		}
		lt.pctForest[k].PredictSweep(&sc.m, featWindow, lt.windowVals, sc.pctOut)
		lt.maxForest[k].PredictSweep(&sc.m, featWindow, lt.windowVals, sc.maxOut)
		for bi, fv := range sc.fresh {
			pct, mx := windows[:w:w], windows[w:2*w:2*w]
			windows = windows[2*w:]
			for t := range pct {
				pct[t] = quantize(sc.pctOut[bi*w+t], lt.cfg.SafetyBuckets)
				mx[t] = quantize(sc.maxOut[bi*w+t], lt.cfg.SafetyBuckets)
			}
			preds[fv.i].Pct[k], preds[fv.i].Max[k] = pct, mx
		}
	}
	for _, fv := range sc.fresh {
		preds[fv.i].Clamp()
	}
}

// quantizeAll applies quantize element-wise.
func quantizeAll(xs []float64, safetyBuckets int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = quantize(x, safetyBuckets)
	}
	return out
}

// quantize rounds a predicted fraction up to the next 5% bucket, adds the
// configured safety margin, and clamps into [0,1] ("predicts utilization
// in 5% buckets", §3.3).
func quantize(x float64, safetyBuckets int) float64 {
	if x < 0 {
		x = 0
	}
	b := stats.BucketUp(x, coachvm.FractionBucket) + float64(safetyBuckets)*coachvm.FractionBucket
	if b > 1 {
		b = 1
	}
	return b
}
