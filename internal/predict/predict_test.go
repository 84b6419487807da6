package predict

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/mlforest"
	"github.com/coach-oss/coach/internal/mllstm"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

var (
	cachedTrace *trace.Trace
	cachedModel *LongTerm
)

func getTraceAndModel(t *testing.T) (*trace.Trace, *LongTerm) {
	t.Helper()
	if cachedTrace == nil {
		sp, err := scenario.Preset("capacity")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.GenerateScenario(sp.Scaled(300, 30))
		if err != nil {
			t.Fatal(err)
		}
		m, err := TrainLongTerm(tr, tr.Horizon/2, DefaultLongTermConfig())
		if err != nil {
			t.Fatal(err)
		}
		cachedTrace, cachedModel = tr, m
	}
	return cachedTrace, cachedModel
}

func TestTrainLongTermValidation(t *testing.T) {
	tr, _ := getTraceAndModel(t)
	cfg := DefaultLongTermConfig()
	for _, p := range []float64{0, -5, 100.5, math.Inf(1), math.NaN()} {
		cfg.Percentile = p
		if _, err := TrainLongTerm(tr, tr.Horizon/2, cfg); err == nil {
			t.Errorf("percentile %v must fail", p)
		}
	}
	cfg = DefaultLongTermConfig()
	cfg.Windows = timeseries.Windows{PerDay: 7}
	if _, err := TrainLongTerm(tr, tr.Horizon/2, cfg); err == nil {
		t.Error("invalid windows must fail")
	}
}

func TestModelTrained(t *testing.T) {
	_, m := getTraceAndModel(t)
	if m.TrainRows() == 0 {
		t.Fatal("no training rows")
	}
	if m.MemoryBytes() <= 0 {
		t.Error("model memory must be positive")
	}
}

func TestOwnHistoryPredictionAccuracy(t *testing.T) {
	// For VMs observable during training, the prediction comes from their
	// own history and must cover their actual P95 in most cases. Each VM
	// here runs at least a day on both sides of the split, so its actual
	// P95 includes samples the model never saw.
	tr, m := getTraceAndModel(t)
	split := tr.Horizon / 2
	covered, total := 0, 0
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start > split-timeseries.SamplesPerDay || vm.End < split+timeseries.SamplesPerDay {
			continue
		}
		pred, ok := m.Predict(tr, vm)
		if !ok {
			continue
		}
		total++
		actual := vm.Runs.WindowPercentile(pred.Windows, 95)[resources.Memory]
		ok2 := true
		var predGuar, actGuar float64
		for tt := range actual {
			if pred.Pct[resources.Memory][tt] > predGuar {
				predGuar = pred.Pct[resources.Memory][tt]
			}
			if actual[tt] > actGuar {
				actGuar = actual[tt]
			}
		}
		if predGuar < actGuar-1e-9 {
			ok2 = false
		}
		if ok2 {
			covered++
		}
	}
	if total == 0 {
		t.Skip("no VM spans the train/evaluate split at this scale")
	}
	if frac := float64(covered) / float64(total); frac < 0.8 {
		t.Errorf("own-history coverage = %.2f, want >= 0.8", frac)
	}
}

func TestFreshVMRequiresSubscriptionHistory(t *testing.T) {
	tr, m := getTraceAndModel(t)
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start <= tr.Horizon/2 {
			continue // not fresh
		}
		_, ok := m.Predict(tr, vm)
		if ok && m.HistoryCount(vm.Subscription) < DefaultLongTermConfig().MinHistory {
			t.Fatalf("vm %d predicted without history", vm.ID)
		}
	}
}

func TestPredictionsQuantized(t *testing.T) {
	tr, m := getTraceAndModel(t)
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		pred, ok := m.Predict(tr, vm)
		if !ok {
			continue
		}
		for _, k := range resources.Kinds {
			for _, v := range pred.Max[k] {
				if v < 0 || v > 1 {
					t.Fatalf("prediction %v outside [0,1]", v)
				}
				steps := v / 0.05
				if math.Abs(steps-math.Round(steps)) > 1e-6 {
					t.Fatalf("prediction %v not on a 5%% bucket", v)
				}
			}
		}
		if i > 50 {
			break
		}
	}
}

func TestQuantize(t *testing.T) {
	if got := quantize(0.17, 0); math.Abs(got-0.20) > 1e-12 {
		t.Errorf("quantize(0.17, 0) = %v", got)
	}
	if got := quantize(0.17, 1); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("quantize(0.17, 1) = %v", got)
	}
	if got := quantize(0.99, 2); got != 1 {
		t.Errorf("quantize must clamp at 1, got %v", got)
	}
	if got := quantize(-0.5, 0); got != 0 {
		t.Errorf("quantize(-0.5) = %v", got)
	}
}

func TestNewLocalValidation(t *testing.T) {
	cfg := DefaultLocalConfig()
	cfg.Alpha = -1
	l, err := NewLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Observe(0.5)
	if l.PredictShort() != 0.5 {
		t.Error("invalid alpha must default and track first observation")
	}
}

func TestLocalShortPrediction(t *testing.T) {
	l, err := NewLocal(DefaultLocalConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		l.Observe(0.6)
	}
	if got := l.PredictShort(); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("short prediction = %v, want 0.6", got)
	}
}

func TestLocalWindowRolling(t *testing.T) {
	l, _ := NewLocal(DefaultLocalConfig())
	for w := 0; w < 3; w++ {
		for i := 0; i < 15; i++ {
			l.Observe(0.5)
		}
		l.CompleteWindow()
	}
	if l.completed != 3 {
		t.Errorf("completed = %d", l.completed)
	}
	// Empty window is a no-op.
	l.CompleteWindow()
	if l.completed != 3 {
		t.Error("empty CompleteWindow must not count")
	}
}

func TestLocalWarmupGating(t *testing.T) {
	cfg := DefaultLocalConfig()
	cfg.WarmupWindows = 2
	l, _ := NewLocal(cfg)
	if l.LSTMReady() {
		t.Error("LSTM ready before warmup")
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < 15; i++ {
			l.Observe(0.4)
		}
		l.CompleteWindow()
	}
	if !l.LSTMReady() {
		t.Error("LSTM not ready after warmup")
	}
}

func TestLocalFiveMinFallsBackBeforeWarmup(t *testing.T) {
	l, _ := NewLocal(DefaultLocalConfig()) // 288-window warmup
	for i := 0; i < 15; i++ {
		l.Observe(0.7)
	}
	l.CompleteWindow()
	if got := l.PredictFiveMin(); math.Abs(got-l.PredictShort()) > 1e-9 {
		t.Errorf("pre-warmup 5-min prediction %v != EWMA %v", got, l.PredictShort())
	}
}

func TestLocalLSTMLearnsLevel(t *testing.T) {
	cfg := DefaultLocalConfig()
	cfg.WarmupWindows = 5
	l, _ := NewLocal(cfg)
	for w := 0; w < 120; w++ {
		for i := 0; i < 15; i++ {
			l.Observe(0.5)
		}
		l.CompleteWindow()
	}
	if got := l.PredictFiveMin(); math.Abs(got-0.5) > 0.15 {
		t.Errorf("LSTM prediction of constant 0.5 = %v", got)
	}
}

func TestLocalMemoryBudget(t *testing.T) {
	l, _ := NewLocal(DefaultLocalConfig())
	// Paper §4.5: each local predictor requires ~25KB.
	if mb := l.MemoryBytes(); mb > 64<<10 {
		t.Errorf("local predictor uses %d bytes, want ~25KB", mb)
	}
}

// TestLocalHistoryOrder checks the rotated window history against a
// network fed the plain chronological history: every five-minute
// forecast must agree bit for bit, so the rows reach the LSTM oldest
// first.
func TestLocalHistoryOrder(t *testing.T) {
	cfg := DefaultLocalConfig()
	cfg.WarmupWindows = 3
	l, _ := NewLocal(cfg)
	ref, _ := mllstm.New(cfg.LSTM)
	var hist [][]float64
	for w := 0; w < 40; w++ {
		var peak, sum float64
		for i := 0; i < 15; i++ {
			u := 0.5 + 0.4*math.Sin(float64(7*w+i)/9)
			l.Observe(u)
			peak = math.Max(peak, u)
			sum += u
		}
		if len(hist) == cfg.SeqLen {
			ref.Train(hist, peak)
			hist = hist[1:]
		}
		hist = append(hist, []float64{peak, sum / 15})
		l.CompleteWindow()
		if !l.LSTMReady() || len(hist) < cfg.SeqLen {
			continue
		}
		if got, want := l.PredictFiveMin(), clamp01(ref.Predict(hist)); got != want {
			t.Fatalf("window %d: forecast %v, chronological reference %v", w, got, want)
		}
	}
}

func TestLocalDoesNotAllocate(t *testing.T) {
	cfg := DefaultLocalConfig()
	cfg.WarmupWindows = 1
	l, _ := NewLocal(cfg)
	for w := 0; w <= cfg.SeqLen; w++ {
		l.Observe(0.3)
		l.CompleteWindow()
	}
	for name, f := range map[string]func(){
		"Observe":        func() { l.Observe(0.4) },
		"CompleteWindow": func() { l.Observe(0.4); l.CompleteWindow() },
		"PredictFiveMin": func() { l.PredictFiveMin() },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}

func TestPredictionClampAgainstMax(t *testing.T) {
	tr, m := getTraceAndModel(t)
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		pred, ok := m.Predict(tr, vm)
		if !ok {
			continue
		}
		for _, k := range resources.Kinds {
			for tt := range pred.Pct[k] {
				if pred.Pct[k][tt] > pred.Max[k][tt]+1e-9 {
					t.Fatalf("pct above max at vm %d", vm.ID)
				}
			}
		}
		if i > 50 {
			break
		}
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	tr, m := getTraceAndModel(t)
	// VM ids are chronological: take 120 spread over the whole trace, so
	// the batch holds VMs of both halves.
	var vms []*trace.VM
	for i := 0; i < len(tr.VMs) && len(vms) < 120; i += max(1, len(tr.VMs)/120) {
		vms = append(vms, &tr.VMs[i])
	}
	preds, oks := make([]coachvm.Prediction, len(vms)), make([]bool, len(vms))
	m.PredictBatchInto(tr, vms, preds, oks)
	sawFresh, sawSelf, sawNoHist := false, false, false
	for i, vm := range vms {
		single, ok := m.Predict(tr, vm)
		if ok != oks[i] {
			t.Fatalf("vm %d: batch ok=%v, single ok=%v", vm.ID, oks[i], ok)
		}
		if ref, refOK := referencePredict(m, tr, vm); refOK != ok || !reflect.DeepEqual(ref, single) {
			t.Fatalf("vm %d: Predict %+v/%v diverges from the per-row reference %+v/%v", vm.ID, single, ok, ref, refOK)
		}
		if !ok {
			sawNoHist = true
			continue
		}
		if vm.Start >= tr.Horizon/2 {
			sawFresh = true
		} else {
			sawSelf = true
		}
		for _, k := range resources.Kinds {
			for w := range single.Pct[k] {
				if preds[i].Pct[k][w] != single.Pct[k][w] {
					t.Fatalf("vm %d %v pct window %d: batch %v != single %v",
						vm.ID, k, w, preds[i].Pct[k][w], single.Pct[k][w])
				}
				if preds[i].Max[k][w] != single.Max[k][w] {
					t.Fatalf("vm %d %v max window %d: batch %v != single %v",
						vm.ID, k, w, preds[i].Max[k][w], single.Max[k][w])
				}
			}
		}
	}
	if !sawFresh || !sawSelf {
		t.Errorf("batch did not cover both paths: fresh=%v self=%v noHistory=%v",
			sawFresh, sawSelf, sawNoHist)
	}
}

// TestPredictBatchIntoOverwritesReusedSlices pins the Into form's reuse
// contract: a second batch written into the same slices must leave no
// residue of the first — in particular a VM rejected for insufficient
// history must not inherit the previous occupant's prediction windows.
func TestPredictBatchIntoOverwritesReusedSlices(t *testing.T) {
	tr, m := getTraceAndModel(t)
	var okVMs, noHistVMs []*trace.VM
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if _, ok := m.Predict(tr, vm); ok {
			okVMs = append(okVMs, vm)
		} else {
			noHistVMs = append(noHistVMs, vm)
		}
	}
	if len(okVMs) == 0 || len(noHistVMs) == 0 {
		t.Skipf("need both predictable and history-poor VMs (%d/%d)", len(okVMs), len(noHistVMs))
	}
	preds := make([]coachvm.Prediction, 1)
	oks := make([]bool, 1)
	m.PredictBatchInto(tr, okVMs[:1], preds, oks)
	if !oks[0] || preds[0].Pct[resources.Memory] == nil {
		t.Fatalf("first batch: ok=%v pred=%+v", oks[0], preds[0])
	}
	m.PredictBatchInto(tr, noHistVMs[:1], preds, oks)
	if oks[0] {
		t.Fatal("history-poor VM predicted ok on reused slice")
	}
	if preds[0].Pct[resources.Memory] != nil || preds[0].Max[resources.Memory] != nil {
		t.Fatal("reused prediction entry kept the previous batch's windows")
	}
	want, _ := m.Predict(tr, okVMs[0])
	m.PredictBatchInto(tr, okVMs[:1], preds, oks)
	if !oks[0] || !reflect.DeepEqual(preds[0], want) {
		t.Fatalf("reused slice batch diverged from Predict: %+v vs %+v", preds[0], want)
	}
}

// TestPredictBatchIntoAllocations bounds the forest path's steady-state
// cost: whatever the batch size, the only allocation is the one slab the
// returned prediction windows are carved from, and every forest evaluates
// one matrix row per VM, swept over the windows.
func TestPredictBatchIntoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under -race")
	}
	tr, m := getTraceAndModel(t)
	var fresh []*trace.VM
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start >= tr.Horizon/2 && m.HistoryCount(vm.Subscription) >= m.cfg.MinHistory {
			fresh = append(fresh, vm)
		}
	}
	if len(fresh) < 2 {
		t.Fatalf("fixture regression: %d forest-path VMs", len(fresh))
	}
	for _, n := range []int{1, len(fresh)} {
		preds, oks := make([]coachvm.Prediction, n), make([]bool, n)
		if allocs := testing.AllocsPerRun(20, func() { m.PredictBatchInto(tr, fresh[:n], preds, oks) }); allocs > 1 {
			t.Errorf("batch of %d: %v allocations per call, want 1", n, allocs)
		}
		before := m.InferenceStats()
		m.PredictBatchInto(tr, fresh[:n], preds, oks)
		st := m.InferenceStats()
		forests, w := int64(2*resources.NumKinds), int64(m.cfg.Windows.PerDay)
		if st.Passes-before.Passes != forests || st.Rows-before.Rows != forests*int64(n)*w {
			t.Errorf("batch of %d: %d passes / %d rows, want %d / %d", n,
				st.Passes-before.Passes, st.Rows-before.Rows, forests, forests*int64(n)*w)
		}
		trees := int64(m.cfg.Forest.Trees)
		if lanes := st.Lanes - before.Lanes; lanes < forests*int64(n)*trees || lanes >= forests*int64(n)*trees*w {
			t.Errorf("batch of %d: %d lanes, want sharing between 1 and %d per (VM, tree)", n, lanes, w)
		}
	}
}

// Gob numbers each type the first time a process encodes it, and the
// numbers are part of the bytes. Encoding a Forest before any test runs
// gives its wire types the same numbers in every run of this test
// binary, so the pinned model hash below does not depend on which tests
// ran first.
func init() { _, _ = (&mlforest.Forest{}).GobEncode() }

// TestTrainLongTermAcrossWorkers trains one mini scenario at GOMAXPROCS
// 1 and 4 and requires the same model bit for bit: every forest's gob
// bytes and every subscription history's float sums. Training
// preparation runs on every core and folds its per-VM slots in VM order,
// so neither may depend on the core count. On amd64 the model is also
// pinned to its SHA-256 (other architectures may fuse multiply-adds); a
// change that means to alter the model updates the hash in its own diff.
func TestTrainLongTermAcrossWorkers(t *testing.T) {
	sp, err := scenario.Preset("sparse-churn")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.GenerateScenario(sp.Scaled(300, 30))
	if err != nil {
		t.Fatal(err)
	}
	var sums [2]string
	for i, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			lt, err := TrainLongTerm(tr, tr.Horizon/2, DefaultLongTermConfig())
			if err != nil {
				t.Fatal(err)
			}
			sums[i] = modelSHA256(t, tr, lt)
		}()
	}
	if sums[0] != sums[1] {
		t.Fatalf("model trained at GOMAXPROCS 1 (%s) differs from GOMAXPROCS 4 (%s)", sums[0], sums[1])
	}
	const want = "e464ecae32a8c6e4ec23adb46009d712956e7fafd79e2e0eec0ace90f05fee61"
	if runtime.GOARCH == "amd64" && sums[0] != want {
		t.Errorf("model SHA-256 %s, pinned %s", sums[0], want)
	}
}

// modelSHA256 hashes every forest's gob bytes in resource order, then
// each subscription history in subscription order.
func modelSHA256(t *testing.T, tr *trace.Trace, lt *LongTerm) string {
	t.Helper()
	h := sha256.New()
	for _, k := range resources.Kinds {
		for _, f := range [...]*mlforest.Forest{lt.pctForest[k], lt.maxForest[k]} {
			enc, err := f.GobEncode()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(enc)
		}
	}
	for sub := range tr.Subscriptions {
		if sh := lt.history[sub]; sh != nil {
			fmt.Fprintf(h, "%d %d %v %v\n", sub, sh.count, sh.meanPeak, sh.meanMean)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
