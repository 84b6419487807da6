package serve

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

var (
	testOnce  sync.Once
	testTrace *trace.Trace
	// testCache is shared by tests that don't bring their own cache, so
	// the package trains each distinct model configuration only once.
	testCache = NewModelCache()
)

// getTrace shares one small trace across the package's tests; forests are
// shared through a ModelCache per test as needed.
func getTrace(t *testing.T) *trace.Trace {
	t.Helper()
	testOnce.Do(func() {
		cfg := trace.DefaultGenConfig()
		cfg.VMs = 300
		cfg.Subscriptions = 30
		tr, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		testTrace = tr
	})
	if testTrace == nil {
		t.Fatal("trace generation failed earlier")
	}
	return testTrace
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = testCache
	}
	tr := getTrace(t)
	fleet := cluster.NewFleet(cluster.DefaultClusters(6))
	s, err := New(tr, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// evalVMs returns VMs arriving in the evaluation period — the population
// an online admission service would actually see.
func evalVMs(tr *trace.Trace) []*trace.VM {
	var out []*trace.VM
	for i := range tr.VMs {
		if tr.VMs[i].Start >= tr.Horizon/2 {
			out = append(out, &tr.VMs[i])
		}
	}
	return out
}

func TestServiceValidation(t *testing.T) {
	tr := getTrace(t)
	fleet := cluster.NewFleet(cluster.DefaultClusters(2))
	cfg := DefaultConfig()
	cfg.TrainUpTo = tr.Horizon + 1
	if _, err := New(tr, fleet, cfg); err == nil {
		t.Error("out-of-range TrainUpTo must fail")
	}
	if _, err := New(tr, cluster.NewFleet(nil), DefaultConfig()); err == nil {
		t.Error("empty fleet must fail")
	}
	cfg = DefaultConfig()
	cfg.Windows = timeseries.Windows{PerDay: 5}
	if _, err := New(tr, fleet, cfg); err == nil {
		t.Error("windows that do not divide the day must fail")
	}
	offset := *tr
	offset.VMs = append([]trace.VM(nil), tr.VMs...)
	for i := range offset.VMs {
		offset.VMs[i].ID++
	}
	if _, err := New(&offset, fleet, DefaultConfig()); err == nil {
		t.Error("a trace whose VM ids are not indices must fail")
	}
}

// TestPredictDeterministicAcrossBatching drives 64 goroutines of
// concurrent predictions over the evaluation VMs and checks every response
// is bit-identical to a serial LongTerm.Predict of the same VM — the
// forests' pooled scratch must not leak one caller's state into another's
// answer — and that Stats().Batch counts every call as its own pass
// (requests = batches, mean size 1), the contract
// serve.predict_batch_mean reads.
func TestPredictDeterministicAcrossBatching(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cache = NewModelCache()
	svc := newTestService(t, cfg)
	model, err := svc.modelFor()
	if err != nil {
		t.Fatal(err)
	}

	tr := getTrace(t)
	vms := evalVMs(tr)
	if len(vms) < 10 {
		t.Fatalf("only %d evaluation VMs", len(vms))
	}
	want := make([]coachvm.Prediction, len(vms))
	wantOK := make([]bool, len(vms))
	for i, vm := range vms {
		want[i], wantOK[i] = model.Predict(tr, vm)
	}
	if st := svc.Stats().Batch; st != (BatchStats{}) {
		t.Fatalf("batch stats %+v before any Predict call", st)
	}

	const goroutines = 64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range vms {
				i := (g + k) % len(vms) // goroutines start at different VMs
				pred, ok, err := svc.Predict(vms[i])
				if err != nil {
					errs <- err
					return
				}
				if ok != wantOK[i] || !reflect.DeepEqual(pred, want[i]) {
					errs <- fmt.Errorf("vm %d: concurrent prediction diverged from the serial one", vms[i].ID)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	calls := int64(goroutines * len(vms))
	wantStats := BatchStats{Requests: calls, Batches: calls, MaxBatch: 1, MeanSize: 1, P50Size: 1}
	if st := svc.Stats().Batch; st != wantStats {
		t.Errorf("batch stats %+v, want %+v", st, wantStats)
	}
}

// freshVM returns an evaluation VM the forests predict (ok=true with no
// samples of its own before TrainUpTo).
func freshVM(t *testing.T, model *predict.LongTerm) *trace.VM {
	t.Helper()
	for _, vm := range evalVMs(getTrace(t)) {
		if _, ok := model.Predict(getTrace(t), vm); ok {
			return vm
		}
	}
	t.Fatal("fixture regression: no forest-predicted evaluation VM")
	return nil
}

// TestPredictionSlot pins the predict-then-admit handoff: Predict leaves
// its answer in the VM's slot, the VM's next Admit takes it instead of
// running the forests, and every answer is bit-equal to one computed
// afresh — on a twin that never had a prediction waiting.
func TestPredictionSlot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cache = NewModelCache()
	mk := func(cfg Config) *Service {
		s := newTestService(t, cfg)
		if err := s.Warm(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	twin := mk(cfg)
	model, err := twin.modelFor()
	if err != nil {
		t.Fatal(err)
	}
	vm := freshVM(t, model)
	wantPred, _ := model.Predict(getTrace(t), vm)
	wantRes, err := twin.Admit(vm)
	if err != nil || !wantRes.Admitted || !wantRes.Oversubscribed {
		t.Fatalf("twin admit of vm %d: %+v %v, want an oversubscribed admission", vm.ID, wantRes, err)
	}

	t.Run("admit takes the slot", func(t *testing.T) {
		s := mk(cfg)
		if _, _, err := s.Predict(vm); err != nil {
			t.Fatal(err)
		}
		if s.slot(vm).Load() == nil {
			t.Fatal("Predict left no prediction for the admit")
		}
		passes := model.InferenceStats().Passes
		res, err := s.Admit(vm)
		if err != nil || res != wantRes {
			t.Fatalf("admit %+v %v, want %+v", res, err, wantRes)
		}
		if got := model.InferenceStats().Passes - passes; got != 0 {
			t.Errorf("admit after predict ran %d forest passes, want 0", got)
		}
		if s.slot(vm).Load() != nil {
			t.Error("admit left the prediction in the slot")
		}
	})

	t.Run("second predict leaves identical bits", func(t *testing.T) {
		s := mk(cfg)
		var seen []*admitIn
		for i := 0; i < 2; i++ {
			pred, ok, err := s.Predict(vm)
			if err != nil || !ok || !reflect.DeepEqual(pred, wantPred) {
				t.Fatalf("predict %d: ok=%v err=%v, or windows differ from LongTerm.Predict", i, ok, err)
			}
			seen = append(seen, s.slot(vm).Load())
		}
		if seen[0] == seen[1] || !reflect.DeepEqual(*seen[0], *seen[1]) {
			t.Error("a second Predict must replace the slot with an identical prediction")
		}
		if res, err := s.Admit(vm); err != nil || res != wantRes {
			t.Fatalf("admit %+v %v, want %+v", res, err, wantRes)
		}
	})

	t.Run("degraded predict leaves no slot", func(t *testing.T) {
		sched, err := fault.Compile([]scenario.Fault{{Kind: "train-fail"}}, 1, []int{1}, 100)
		if err != nil {
			t.Fatal(err)
		}
		dcfg := cfg
		dcfg.Faults = sched
		s := newTestService(t, dcfg)
		if _, _, err := s.Predict(vm); !errors.Is(err, ErrModelUnavailable) {
			t.Fatalf("degraded predict: %v, want ErrModelUnavailable", err)
		}
		if s.slot(vm).Load() != nil {
			t.Fatal("a failed Predict left a prediction in the slot")
		}
		if res, err := s.Admit(vm); err != nil || !res.Degraded || res.Oversubscribed {
			t.Fatalf("degraded admit %+v %v, want a fully guaranteed degraded admission", res, err)
		}
	})

	// Run under -race: predictions, admissions and releases of one VM race
	// on its slot, and every answer must still be the twin's.
	t.Run("concurrent predict admit release", func(t *testing.T) {
		s := mk(cfg)
		const goroutines, rounds = 8, 60
		var wg sync.WaitGroup
		var admitted, released atomic.Int64
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < rounds; k++ {
					switch (g + k) % 3 {
					case 0:
						pred, ok, err := s.Predict(vm)
						if err != nil || !ok || !reflect.DeepEqual(pred, wantPred) {
							errs <- fmt.Errorf("predict: ok=%v err=%v, or windows differ", ok, err)
							return
						}
					case 1:
						res, err := s.Admit(vm)
						if errors.Is(err, ErrAlreadyAdmitted) {
							continue
						}
						if err != nil || res != wantRes {
							errs <- fmt.Errorf("admit %+v %v, want %+v", res, err, wantRes)
							return
						}
						admitted.Add(1)
					case 2:
						ok, err := s.Release(vm)
						if err != nil {
							errs <- err
							return
						}
						if ok {
							released.Add(1)
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if admitted.Load() == 0 {
			t.Fatal("no admission succeeded: the race was never run")
		}
		if got, want := int64(s.Stats().Placed), admitted.Load()-released.Load(); got != want {
			t.Errorf("placed %d, want admitted-released %d", got, want)
		}
	})
}

// TestConcurrentAdmitRelease churns admissions and releases from many
// goroutines (disjoint VM sets per goroutine) and checks the shard
// bookkeeping balances.
func TestConcurrentAdmitRelease(t *testing.T) {
	s := newTestService(t, DefaultConfig())
	tr := getTrace(t)
	vms := evalVMs(tr)

	const workers = 8
	var wg sync.WaitGroup
	var admitted, released atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(vms); i += workers {
				res, err := s.Admit(vms[i])
				if err != nil {
					errs <- err
					return
				}
				if !res.Admitted {
					continue
				}
				admitted.Add(1)
				// Release every other admitted VM to churn shard state.
				if i%2 == 0 {
					ok, err := s.Release(vms[i])
					if err != nil {
						errs <- err
						return
					}
					if !ok {
						errs <- errors.New("release of admitted vm reported not admitted")
						return
					}
					released.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	var admSum, relSum int64
	for _, cs := range st.Clusters {
		admSum += cs.Admitted
		relSum += cs.Released
	}
	if admSum != admitted.Load() || relSum != released.Load() {
		t.Errorf("stats admitted/released %d/%d, want %d/%d", admSum, relSum, admitted.Load(), released.Load())
	}
	if got, want := int64(st.Placed), admitted.Load()-released.Load(); got != want {
		t.Errorf("placed %d, want %d", got, want)
	}
	if admitted.Load() == 0 {
		t.Error("no VM was admitted")
	}
}

func TestAdmitDuplicateAndRelease(t *testing.T) {
	s := newTestService(t, DefaultConfig())
	tr := getTrace(t)
	vms := evalVMs(tr)

	var vm *trace.VM
	for _, cand := range vms {
		res, err := s.Admit(cand)
		if err != nil {
			t.Fatal(err)
		}
		if res.Admitted {
			vm = cand
			break
		}
	}
	if vm == nil {
		t.Fatal("no admissible VM found")
	}
	if _, err := s.Admit(vm); !errors.Is(err, ErrAlreadyAdmitted) {
		t.Fatalf("duplicate admit error = %v, want ErrAlreadyAdmitted", err)
	}
	if ok, err := s.Release(vm); err != nil || !ok {
		t.Fatalf("release of admitted VM: ok=%v err=%v", ok, err)
	}
	if ok, err := s.Release(vm); err != nil || ok {
		t.Fatalf("double release: ok=%v err=%v, want not admitted", ok, err)
	}
	// Re-admission after release must succeed again.
	res, err := s.Admit(vm)
	if err != nil || !res.Admitted {
		t.Fatalf("re-admit after release: admitted=%v err=%v", res.Admitted, err)
	}
}

// TestModelCacheSharing asserts the cold start trains once and every
// later service on the same (trace, config) hits the cache.
func TestModelCacheSharing(t *testing.T) {
	cache := NewModelCache()
	cfg := DefaultConfig()
	cfg.Cache = cache

	a := newTestService(t, cfg)
	if err := a.Warm(); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.Models != 1 {
		t.Fatalf("after first warm: %+v, want 1 miss, 0 hits, 1 model", st)
	}

	b := newTestService(t, cfg)
	if err := b.Warm(); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Models != 1 {
		t.Fatalf("after second warm: %+v, want 1 miss, 1 hit, 1 model", st)
	}

	// Any differing training hyperparameter is a different model —
	// including ones beyond percentile/windows, so a shared cache can
	// never hand a canary config the live config's model.
	for i, mutate := range []func(*Config){
		func(c *Config) { c.Percentile = 50 },
		func(c *Config) { c.LongTerm.Forest.Trees = 10 },
		func(c *Config) { c.LongTerm.SafetyBuckets = 2 },
		func(c *Config) { c.LongTerm.MinHistory = 5 },
	} {
		cfg2 := cfg
		mutate(&cfg2)
		c := newTestService(t, cfg2)
		if err := c.Warm(); err != nil {
			t.Fatal(err)
		}
		want := int64(2 + i)
		if st = cache.Stats(); st.Misses != want || st.Models != int(want) {
			t.Fatalf("after config variant %d: %+v, want %d misses/models", i, st, want)
		}
	}
}

// TestModelCacheSingleflight floods a cold cache with concurrent gets and
// checks train ran exactly once.
func TestModelCacheSingleflight(t *testing.T) {
	cache := NewModelCache()
	var trains atomic.Int64
	key := ModelKey{TraceID: 7}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = cache.Get(key, func() (*predict.LongTerm, error) {
				trains.Add(1)
				return nil, nil
			})
		}()
	}
	wg.Wait()
	if trains.Load() != 1 {
		t.Fatalf("train ran %d times, want 1", trains.Load())
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 15 {
		t.Fatalf("stats %+v, want 1 miss, 15 hits", st)
	}
}

func TestCloseRejectsAndDrains(t *testing.T) {
	s := newTestService(t, DefaultConfig())
	tr := getTrace(t)
	vms := evalVMs(tr)
	if _, _, err := s.Predict(vms[0]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, _, err := s.Predict(vms[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("predict after close: %v, want ErrClosed", err)
	}
	if _, err := s.Admit(vms[1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("admit after close: %v, want ErrClosed", err)
	}
	if _, err := s.Release(vms[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("release after close: %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestFingerprintDistinguishesTraces(t *testing.T) {
	tr := getTrace(t)
	if Fingerprint(tr) != Fingerprint(tr) {
		t.Fatal("fingerprint not deterministic")
	}
	cfg := trace.DefaultGenConfig()
	cfg.VMs = 120
	cfg.Subscriptions = 12
	other, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(tr) == Fingerprint(other) {
		t.Fatal("distinct traces share a fingerprint")
	}
}
