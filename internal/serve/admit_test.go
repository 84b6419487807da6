package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/trace"
)

// tinyFleet builds a deliberately capacity-constrained fleet — ten
// clusters of serversPer small servers, each holding only a few median
// VMs — so admission storms hit genuine capacity conflicts.
func tinyFleet(serversPer int) *cluster.Fleet {
	spec := cluster.ServerSpec{Name: "tiny", Generation: 1,
		Capacity: resources.NewVector(16, 64, 10, 1024)}
	var cfgs []cluster.Config
	for i := 0; i < 10; i++ {
		cfgs = append(cfgs, cluster.Config{Name: fmt.Sprintf("T%d", i+1), Spec: spec, Servers: serversPer})
	}
	return cluster.NewFleet(cfgs)
}

// pressuredConfig is the admission fixtures' serving config: data plane
// on and pressure-aware admission, so the pressure-filtered pick, the
// pressure rejection and the plain best-fit fallback are all live.
func pressuredConfig(cache *ModelCache) Config {
	cfg := DefaultConfig()
	cfg.Cache = cache
	cfg.DataPlane = true
	cfg.AdmitPressureFrac = 0.95
	return cfg
}

// newWarmService builds a service over the shared test trace and trains
// (or fetches) its model, tolerating the degraded-mode training failure.
func newWarmService(t *testing.T, fleet *cluster.Fleet, cfg Config) *Service {
	t.Helper()
	s, err := New(getTrace(t), fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.Warm(); err != nil && !errors.Is(err, ErrModelUnavailable) {
		t.Fatal(err)
	}
	return s
}

// postAdmit drives one POST /v1/admit through the handler and returns the
// raw status and body — the bytes the ordering wall compares.
func postAdmit(t *testing.T, h http.Handler, vmID int) (int, string) {
	t.Helper()
	body, err := json.Marshal(VMRequest{VM: vmID})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/admit", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// sameClusterVMs returns up to n evaluation VMs homed in one shard of a
// width-clusters fleet, and that shard's index.
func sameClusterVMs(tr *trace.Trace, clusters, n int) ([]*trace.VM, int) {
	byShard := make(map[int][]*trace.VM)
	best := -1
	for _, vm := range evalVMs(tr) {
		ci := vm.HomeShard(clusters)
		byShard[ci] = append(byShard[ci], vm)
		if best < 0 || len(byShard[ci]) > len(byShard[best]) {
			best = ci
		}
	}
	vms := byShard[best]
	if len(vms) > n {
		vms = vms[:n]
	}
	return vms, best
}

// admitAll admits vms in order and returns the results, failing on any
// error.
func admitAll(t *testing.T, s *Service, vms []*trace.VM) []AdmitResult {
	t.Helper()
	out := make([]AdmitResult, len(vms))
	for i, vm := range vms {
		res, err := s.Admit(vm)
		if err != nil {
			t.Fatalf("vm %d: %v", vm.ID, err)
		}
		out[i] = res
	}
	return out
}

// TestAdmitCapacityConflict admits a run of same-cluster VMs onto a
// single-server cluster, so later admissions must observe the capacity
// earlier ones consumed: the run must both admit and reject, and the
// counters must balance.
func TestAdmitCapacityConflict(t *testing.T) {
	vms, ci := sameClusterVMs(getTrace(t), 10, 12)
	if len(vms) < 4 {
		t.Fatalf("only %d VMs share a cluster", len(vms))
	}
	s := newWarmService(t, tinyFleet(1), pressuredConfig(testCache))
	admitted, rejected := 0, 0
	for _, res := range admitAll(t, s, vms) {
		if res.Admitted {
			admitted++
		} else {
			rejected++
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("conflict run must both admit and reject (admitted=%d rejected=%d)", admitted, rejected)
	}
	st := s.Stats()
	if cs := st.Clusters[ci]; cs.Admitted != int64(admitted) || cs.Rejected != int64(rejected) || cs.Placed != admitted {
		t.Errorf("cluster %d stats %+v, want %d admitted (all placed), %d rejected", ci, cs, admitted, rejected)
	}
	want := AdmitBatchStats{BatchStats: onePerPass(int64(len(vms)))}
	if st.AdmitBatch != want {
		t.Errorf("admit_batch %+v, want %+v", st.AdmitBatch, want)
	}
}

// TestAdmitDuplicateRejected checks a VM admitted earlier in a run is
// refused with ErrAlreadyAdmitted, and with 409 over HTTP.
func TestAdmitDuplicateRejected(t *testing.T) {
	vms, _ := sameClusterVMs(getTrace(t), 10, 3)
	s := newWarmService(t, tinyFleet(4), pressuredConfig(testCache))
	for i, vm := range []*trace.VM{vms[0], vms[1], vms[0], vms[2], vms[1]} {
		res, err := s.Admit(vm)
		wantDup := i == 2 || i == 4
		if got := errors.Is(err, ErrAlreadyAdmitted); got != wantDup {
			t.Fatalf("admit %d (vm %d): %+v %v, want duplicate=%v", i, vm.ID, res, err, wantDup)
		}
		if !wantDup && (err != nil || !res.Admitted) {
			t.Fatalf("admit %d (vm %d): %+v %v, want admitted", i, vm.ID, res, err)
		}
	}
	if code, body := postAdmit(t, s.Handler(), vms[2].ID); code != http.StatusConflict {
		t.Errorf("HTTP duplicate: %d %s, want 409", code, body)
	}
}

// TestAdmitDegraded admits without a model (injected training failure):
// every decision is shaped fully guaranteed, and the capacity conflict
// still both admits and rejects.
func TestAdmitDegraded(t *testing.T) {
	faults, err := fault.Compile([]scenario.Fault{{Kind: "train-fail"}}, 1, []int{1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	vms, _ := sameClusterVMs(getTrace(t), 10, 12)
	cfg := pressuredConfig(testCache)
	cfg.Faults = faults
	s := newWarmService(t, tinyFleet(1), cfg)
	admitted := 0
	for i, res := range admitAll(t, s, vms) {
		if !res.Degraded || res.Oversubscribed {
			t.Fatalf("admit %d: %+v, want a degraded fully-guaranteed decision", i, res)
		}
		if res.Admitted {
			admitted++
		}
	}
	if admitted == 0 || admitted == len(vms) {
		t.Fatalf("degraded run admitted %d of %d: capacity conflict untested", admitted, len(vms))
	}
}

// TestAdmitAfterPredictCost pins what one admission costs once /v1/predict
// has run: the admission takes the slot, so no forest pass, and one
// what-if sweep over the shard.
func TestAdmitAfterPredictCost(t *testing.T) {
	cfg := pressuredConfig(NewModelCache())
	cfg.AdmitPressureFrac = 0.99
	s := newWarmService(t, cluster.NewFleet(cluster.DefaultClusters(8)), cfg)
	model, err := s.modelFor()
	if err != nil {
		t.Fatal(err)
	}
	vm := freshVM(t, model)
	if _, _, err := s.Predict(vm); err != nil {
		t.Fatal(err)
	}
	passes0 := model.InferenceStats().Passes
	sweeps0 := s.Stats().DataPlane.WhatIfBatches
	if res, err := s.Admit(vm); err != nil || !res.Admitted {
		t.Fatalf("admit vm %d: %+v %v", vm.ID, res, err)
	}
	passes := model.InferenceStats().Passes - passes0
	sweeps := s.Stats().DataPlane.WhatIfBatches - sweeps0
	if passes != 0 || sweeps != 1 {
		t.Fatalf("admission after predict ran %d forest passes and %d what-if sweeps, want 0 and 1", passes, sweeps)
	}
}

// TestAdmitStormOrderingWall is the ordering wall: 64 concurrent clients
// admit over HTTP, each shard's lock order is recorded, and replaying
// exactly that order one request at a time on a twin must produce
// byte-identical responses for every VM and identical stats — on a fleet
// small enough that capacity conflicts are common, so later decisions
// genuinely depend on earlier ones.
func TestAdmitStormOrderingWall(t *testing.T) {
	tr := getTrace(t)
	cache := NewModelCache()
	storm := newWarmService(t, tinyFleet(2), pressuredConfig(cache))
	twin := newWarmService(t, tinyFleet(2), pressuredConfig(cache))

	// order[ci] is appended only under shard ci's lock, so the shards'
	// slices need no lock of their own. The short sleep stands in for a
	// loaded shard's slower decision: same-shard requests pile up at the
	// lock, so the recorded order is one real contention produced.
	order := make([][]int, len(storm.shards))
	storm.onDecide = func(shard, vmID int) {
		order[shard] = append(order[shard], vmID)
		time.Sleep(100 * time.Microsecond)
	}

	vms := evalVMs(tr)
	if len(vms) < 64 {
		t.Fatalf("only %d evaluation VMs", len(vms))
	}
	const clients = 64
	got := make(map[int]string, len(vms)) // VM id → "status\nbody"
	var gotMu sync.Mutex
	var wg sync.WaitGroup
	h := storm.Handler()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(vms); i += clients {
				code, body := postAdmit(t, h, vms[i].ID)
				gotMu.Lock()
				got[vms[i].ID] = fmt.Sprintf("%d\n%s", code, body)
				gotMu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	// Shards are independent — admission state never crosses them — so
	// only the order within each shard matters.
	th := twin.Handler()
	total, rejected := 0, 0
	for shard, ids := range order {
		for _, id := range ids {
			code, body := postAdmit(t, th, id)
			if want := fmt.Sprintf("%d\n%s", code, body); got[id] != want {
				t.Fatalf("shard %d vm %d: storm response %q != serial replay %q", shard, id, got[id], want)
			}
			total++
			if code != http.StatusOK {
				rejected++
			}
		}
	}
	if total != len(vms) {
		t.Fatalf("recorded %d admissions, want %d", total, len(vms))
	}
	if rejected == 0 {
		t.Fatal("storm saw no rejections — fleet not capacity-constrained, ordering untested")
	}
	if st, want := storm.Stats(), twin.Stats(); !reflect.DeepEqual(st, want) {
		t.Fatalf("stats diverge:\n storm:  %+v\n replay: %+v", st, want)
	}
}

// waitLockBlocked waits until some goroutine is parked on a mutex inside
// fn (a "serve.(*Service).Name(" frame).
func waitLockBlocked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Mutex).Lock") && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine blocked on a mutex in %s", fn)
}

// TestCloseIsFinal starts an Admit and a Release that block on a held
// shard lock, marks the service closed and lets them through: both must
// return ErrClosed and Stats must be the snapshot taken before they
// started — a call that passed the entry check must not change state
// after shutdown.
func TestCloseIsFinal(t *testing.T) {
	vms, ci := sameClusterVMs(getTrace(t), 10, 2)
	s := newWarmService(t, tinyFleet(4), pressuredConfig(testCache))
	if res, err := s.Admit(vms[0]); err != nil || !res.Admitted {
		t.Fatalf("admit vm %d: %+v %v", vms[0].ID, res, err)
	}
	// The admission below takes this prediction, so it runs no forest
	// pass that would move the inference counters.
	if _, _, err := s.Predict(vms[1]); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()

	sh := s.shards[ci]
	sh.mu.Lock()
	locked := true
	t.Cleanup(func() { // a failed wait must not leave Close blocked on the lock
		if locked {
			sh.mu.Unlock()
		}
	})
	errs := make(chan error, 2)
	go func() { _, err := s.Admit(vms[1]); errs <- err }()
	waitLockBlocked(t, "serve.(*Service).Admit(")
	go func() { _, err := s.Release(vms[0]); errs <- err }()
	waitLockBlocked(t, "serve.(*Service).Release(")
	s.closed.Store(true)
	locked = false
	sh.mu.Unlock()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Errorf("call blocked across close returned %v, want ErrClosed", err)
		}
	}
	if after := s.Stats(); !reflect.DeepEqual(after, before) {
		t.Fatalf("state changed after close:\n before: %+v\n after:  %+v", before, after)
	}
}
