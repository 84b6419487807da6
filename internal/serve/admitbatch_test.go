package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// pressuredConfig is the equivalence fixtures' serving config: data plane
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
// raw status and body — the bytes the equivalence tests compare.
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

// sameClusterVMs returns up to n evaluation VMs homed in one cluster of a
// width-clusters fleet, and that cluster's shard index.
func sameClusterVMs(tr *trace.Trace, clusters, n int) ([]*trace.VM, int) {
	byShard := make(map[int][]*trace.VM)
	best := -1
	for _, vm := range evalVMs(tr) {
		ci := vm.Cluster % clusters
		if ci < 0 {
			ci += clusters
		}
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

// admitInputs predicts every VM as Admit does before it queues.
func admitInputs(s *Service, vms []*trace.VM) []admitIn {
	ins := make([]admitIn, len(vms))
	for i, vm := range vms {
		ins[i] = s.admitInput(vm)
	}
	return ins
}

// requireBatchEqualsOneRow is the forced-batch equivalence wall: the
// admission decision function run once over all of vms on one service
// must produce, row for row, what it produces run one row at a time in
// the same order on a twin — results, errors and every counter in Stats.
func requireBatchEqualsOneRow(t *testing.T, mk func() *Service, ci int, vms []*trace.VM) (batch []admitOut, st Stats) {
	t.Helper()
	batched, oneRow := mk(), mk()
	batch = make([]admitOut, len(vms))
	batched.admitBatch(ci, admitInputs(batched, vms), batch)
	oneIns := admitInputs(oneRow, vms)
	for i := range vms {
		var one [1]admitOut
		oneRow.admitBatch(ci, oneIns[i:i+1], one[:])
		if batch[i].res != one[0].res || fmt.Sprint(batch[i].err) != fmt.Sprint(one[0].err) {
			t.Fatalf("row %d (vm %d): batched {%+v %v} != one-row-in-order {%+v %v}",
				i, vms[i].ID, batch[i].res, batch[i].err, one[0].res, one[0].err)
		}
	}
	st, want := batched.Stats(), oneRow.Stats()
	// Conflict replays are the batch's own bookkeeping cost; a one-row
	// rollout has no later rows to re-score.
	if want.AdmitBatch.ConflictReplays != 0 {
		t.Fatalf("one-row rollouts counted %d conflict replays", want.AdmitBatch.ConflictReplays)
	}
	want.AdmitBatch.ConflictReplays = st.AdmitBatch.ConflictReplays
	// The batch shares one what-if sweep (scoring every row against the
	// pre-batch fleet, then replaying); the twin ran one per row. The
	// twins also share a model cache, so its hit counts differ.
	want.DataPlane.WhatIfBatches = st.DataPlane.WhatIfBatches
	want.DataPlane.WhatIfCandidates = st.DataPlane.WhatIfCandidates
	want.Cache = st.Cache
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("stats diverge:\n batched: %+v\n one-row: %+v", st, want)
	}
	return batch, st
}

// TestAdmitConflictReplaysWithinBatch forces one batch onto a
// single-server cluster so later requests must observe the capacity
// earlier requests consumed: the batch must both admit and reject, count
// conflict replays, and match one-row-at-a-time admission exactly.
func TestAdmitConflictReplaysWithinBatch(t *testing.T) {
	cache := NewModelCache()
	vms, ci := sameClusterVMs(getTrace(t), 10, 12)
	if len(vms) < 4 {
		t.Fatalf("only %d VMs share a cluster", len(vms))
	}
	out, st := requireBatchEqualsOneRow(t, func() *Service {
		return newWarmService(t, tinyFleet(1), pressuredConfig(cache))
	}, ci, vms)

	admitted, rejected := 0, 0
	for _, o := range out {
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Admitted {
			admitted++
		} else {
			rejected++
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("conflict batch must both admit and reject (admitted=%d rejected=%d)", admitted, rejected)
	}
	if st.AdmitBatch.ConflictReplays == 0 {
		t.Error("commits inside a multi-request batch must be folded back as conflict replays")
	}
}

// TestAdmitBatchedDuplicateRejected checks duplicate admissions keep the
// one-at-a-time contract whether the duplicate lands in the same batch as
// the original or (the one-row twin) in a later one.
func TestAdmitBatchedDuplicateRejected(t *testing.T) {
	vms, ci := sameClusterVMs(getTrace(t), 10, 3)
	dup := []*trace.VM{vms[0], vms[1], vms[0], vms[2], vms[1]}
	out, _ := requireBatchEqualsOneRow(t, func() *Service {
		return newWarmService(t, cluster.NewFleet(cluster.DefaultClusters(6)), pressuredConfig(testCache))
	}, ci, dup)
	for i, wantDup := range []bool{false, false, true, false, true} {
		if got := errors.Is(out[i].err, ErrAlreadyAdmitted); got != wantDup {
			t.Errorf("row %d: err %v, want duplicate=%v", i, out[i].err, wantDup)
		}
	}
}

// TestAdmitBatchDegradedEquivalence runs the forced-batch wall without a
// model (injected training failure): every row is shaped fully guaranteed
// and the batch still decides exactly as one row at a time.
func TestAdmitBatchDegradedEquivalence(t *testing.T) {
	sched, err := fault.Compile([]scenario.Fault{{Kind: "train-fail"}}, 1, []int{1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	vms, ci := sameClusterVMs(getTrace(t), 10, 12)
	out, _ := requireBatchEqualsOneRow(t, func() *Service {
		cfg := pressuredConfig(testCache)
		cfg.Faults = sched
		return newWarmService(t, tinyFleet(1), cfg)
	}, ci, vms)
	admitted := 0
	for i, o := range out {
		if o.err != nil || !o.res.Degraded || o.res.Oversubscribed {
			t.Fatalf("row %d: %+v err=%v, want a degraded fully-guaranteed decision", i, o.res, o.err)
		}
		if o.res.Admitted {
			admitted++
		}
	}
	if admitted == 0 || admitted == len(out) {
		t.Fatalf("degraded batch admitted %d of %d: capacity conflict untested", admitted, len(out))
	}
}

// TestAdmitBatchOnePassPerBatch pins what the admit queue runs: requests
// arrive predicted, so however many admissions coalesce, the batch runs no
// forest pass and one what-if sweep — not one per request.
func TestAdmitBatchOnePassPerBatch(t *testing.T) {
	vms, ci := sameClusterVMs(getTrace(t), 10, 8)
	if len(vms) < 4 {
		t.Fatalf("only %d VMs share a cluster", len(vms))
	}
	cfg := pressuredConfig(NewModelCache())
	cfg.AdmitPressureFrac = 0.99
	s := newWarmService(t, cluster.NewFleet(cluster.DefaultClusters(len(vms))), cfg)
	model, err := s.modelFor()
	if err != nil {
		t.Fatal(err)
	}
	// cost runs one decision pass over batch, predicted beforehand as
	// Admit does, and returns its forest passes and what-if sweeps.
	cost := func(batch []*trace.VM) (passes, sweeps int64) {
		ins := admitInputs(s, batch)
		passes0 := model.InferenceStats().Passes
		sweeps0 := s.Stats().DataPlane.WhatIfBatches
		out := make([]admitOut, len(batch))
		s.admitBatch(ci, ins, out)
		for i, o := range out {
			if o.err != nil {
				t.Fatalf("vm %d: %v", batch[i].ID, o.err)
			}
		}
		return model.InferenceStats().Passes - passes0, s.Stats().DataPlane.WhatIfBatches - sweeps0
	}

	// A batch of one: a predictable evaluation-period VM (no samples of
	// its own before TrainUpTo), whose prediction runs the forests.
	fresh := -1
	for i, vm := range vms {
		if _, ok := model.Predict(getTrace(t), vm); ok {
			fresh = i
			break
		}
	}
	if fresh < 0 {
		t.Fatal("fixture regression: no forest-predicted VM in the batch")
	}
	vms[0], vms[fresh] = vms[fresh], vms[0]
	if passes, sweeps := cost(vms[:1]); passes != 0 || sweeps != 1 {
		t.Fatalf("single admission ran %d forest passes and %d what-if sweeps, want 0 and 1", passes, sweeps)
	}
	if _, err := s.Release(vms[0]); err != nil {
		t.Fatal(err)
	}
	if passes, sweeps := cost(vms); passes != 0 || sweeps != 1 {
		t.Errorf("batch of %d ran %d forest passes and %d what-if sweeps, want 0 and 1", len(vms), passes, sweeps)
	}
}

// TestAdmitStormBatchedSerialEquivalence is the acceptance storm: 64
// concurrent clients admit through the default (coalescing) service over
// HTTP, the per-shard order requests actually coalesced in is recorded,
// and the same order replayed against a MaxBatch-1 twin must produce
// byte-identical responses for every VM — on a fleet small enough that
// capacity conflicts are common, so later requests genuinely depend on
// earlier commits.
func TestAdmitStormBatchedSerialEquivalence(t *testing.T) {
	tr := getTrace(t)
	cache := NewModelCache()
	// Two small servers per cluster: most shards run out of capacity
	// during the storm, forcing conflict commits inside batches.
	batched := newWarmService(t, tinyFleet(2), pressuredConfig(cache))
	serialCfg := pressuredConfig(cache)
	serialCfg.MaxBatch = 1
	serial := newWarmService(t, tinyFleet(2), serialCfg)

	// Record every pass's shard and arrival order from the loop
	// goroutines (installed before any traffic). The short sleep stands in
	// for a loaded server's slower pass: requests queue up behind it, so
	// batches form on any core count.
	var mu sync.Mutex
	byShard := make(map[int][]int) // shard → VM ids in coalesced arrival order
	run := batched.admits.run
	batched.admits.run = func(shard int, ins []admitIn, out []admitOut) {
		mu.Lock()
		for _, in := range ins {
			byShard[shard] = append(byShard[shard], in.vm.ID)
		}
		mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		run(shard, ins, out)
	}

	vms := evalVMs(tr)
	if len(vms) < 64 {
		t.Fatalf("only %d evaluation VMs", len(vms))
	}
	const clients = 64
	got := make(map[int]string, len(vms)) // VM id → "status\nbody"
	var gotMu sync.Mutex
	var wg sync.WaitGroup
	h := batched.Handler()
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

	// Replay the exact coalesced order one request at a time. Shards are
	// independent — admission state never crosses them — so shard order is
	// irrelevant.
	sh := serial.Handler()
	total, rejected := 0, 0
	for shard, ids := range byShard {
		for _, id := range ids {
			code, body := postAdmit(t, sh, id)
			if want := fmt.Sprintf("%d\n%s", code, body); got[id] != want {
				t.Fatalf("shard %d vm %d: batched response %q != one-at-a-time replay %q", shard, id, got[id], want)
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
		t.Fatal("storm saw no rejections — fleet not capacity-constrained, conflicts untested")
	}
	bst, sst := batched.Stats().AdmitBatch, serial.Stats().AdmitBatch
	if bst.MaxBatch < 2 || bst.ConflictReplays == 0 {
		t.Fatalf("storm never coalesced (%+v): batched path untested", bst)
	}
	if sst.MaxBatch != 1 || sst.Batches != sst.Requests || sst.ConflictReplays != 0 {
		t.Fatalf("MaxBatch-1 twin coalesced: %+v", sst)
	}
}

// TestBatcherProtocol drives the generic batcher directly: requests on
// distinct queues never share a pass, requests that queue up behind a
// running pass coalesce up to maxBatch in arrival order, the size
// statistics describe the passes that ran, and close answers everything
// queued before rejecting new work.
func TestBatcherProtocol(t *testing.T) {
	const maxBatch = 4
	gate := make(chan struct{})
	started := make(chan int, 16)
	var mu sync.Mutex
	var passes [][]int // every pass's requests, in run order per queue 0
	b := newBatcher(2, maxBatch, func(queue int, reqs []int, out []int) {
		if queue == 0 {
			mu.Lock()
			passes = append(passes, append([]int(nil), reqs...))
			mu.Unlock()
			started <- len(reqs)
			<-gate
		}
		for i, r := range reqs {
			out[i] = 10*r + queue
		}
	})

	var wg sync.WaitGroup
	submit := func(queue, req int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := b.submit(queue, req)
			if err != nil || got != 10*req+queue {
				t.Errorf("submit(%d, %d) = %d, %v", queue, req, got, err)
			}
		}()
	}
	// Pass 1 on queue 0 holds one request and blocks on the gate...
	submit(0, 1)
	if n := <-started; n != 1 {
		t.Fatalf("first pass coalesced %d requests, want 1", n)
	}
	// ...while queue 1 keeps serving...
	if got, err := b.submit(1, 7); err != nil || got != 71 {
		t.Fatalf("queue 1 blocked behind queue 0: %d, %v", got, err)
	}
	// ...and six more requests queue up behind it, in order.
	for r := 2; r <= 7; r++ {
		submit(0, r)
		for len(b.queues[0]) != r-1 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	gate <- struct{}{}
	if n := <-started; n != maxBatch {
		t.Fatalf("second pass coalesced %d requests, want maxBatch %d", n, maxBatch)
	}
	gate <- struct{}{}
	if n := <-started; n != 2 {
		t.Fatalf("third pass coalesced %d requests, want the remaining 2", n)
	}
	// close must wait for the in-flight pass, then reject new work.
	closed := make(chan struct{})
	go func() { b.close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("close returned before the in-flight pass finished")
	case <-time.After(5 * time.Millisecond):
	}
	gate <- struct{}{}
	<-closed
	wg.Wait()
	b.close() // idempotent
	if _, err := b.submit(0, 9); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}

	if want := [][]int{{1}, {2, 3, 4, 5}, {6, 7}}; !reflect.DeepEqual(passes, want) {
		t.Errorf("queue 0 passes %v, want %v", passes, want)
	}
	// Four passes of sizes 1 (queue 1), 1, 4, 2 over 8 requests.
	want := BatchStats{Requests: 8, Batches: 4, MaxBatch: 4, MeanSize: 2, P50Size: 1}
	if got := b.stats(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}
