package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

// dpService builds a data-plane-enabled service over the shared test
// trace, reusing the package's model cache so training happens once.
func dpService(t *testing.T, policy agent.Policy) (*Service, *trace.Trace) {
	t.Helper()
	tr := getTrace(t)
	sc := DefaultConfig()
	sc.Cache = testCache
	sc.DataPlane = true
	sc.MitigationPolicy = policy
	sc.MitigationMode = agent.Reactive
	svc, err := New(tr, cluster.NewFleet(cluster.DefaultClusters(2)), sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, tr
}

// admitSome admits up to n evaluation-period VMs and returns them.
func admitSome(t *testing.T, svc *Service, tr *trace.Trace, n int) []*trace.VM {
	t.Helper()
	var admitted []*trace.VM
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start < tr.Horizon/2 {
			continue
		}
		res, err := svc.Admit(vm)
		if err != nil {
			t.Fatal(err)
		}
		if res.Admitted {
			admitted = append(admitted, vm)
		}
		if len(admitted) == n {
			break
		}
	}
	if len(admitted) == 0 {
		t.Fatal("nothing admitted")
	}
	return admitted
}

func TestTickDataPlaneDisabled(t *testing.T) {
	svc := newTestService(t, DefaultConfig())
	if err := svc.TickDataPlane(); !errors.Is(err, ErrDataPlaneDisabled) {
		t.Errorf("TickDataPlane without a data plane = %v, want ErrDataPlaneDisabled", err)
	}
	if st := svc.Stats(); st.DataPlane.Enabled {
		t.Error("stats must report the data plane disabled")
	}
}

func TestDataPlaneAdmitTickRelease(t *testing.T) {
	svc, tr := dpService(t, agent.PolicyTrim)
	admitted := admitSome(t, svc, tr, 20)

	st := svc.Stats()
	if !st.DataPlane.Enabled || st.DataPlane.Policy != "Trim" {
		t.Fatalf("data plane stats not enabled: %+v", st.DataPlane)
	}
	if st.DataPlane.AttachedVMs != len(admitted) {
		t.Errorf("attached %d VMs, stats say %d", len(admitted), st.DataPlane.AttachedVMs)
	}
	if st.DataPlane.PoolGB <= 0 {
		t.Error("no pool capacity reported")
	}

	for i := 0; i < 12; i++ {
		if err := svc.TickDataPlane(); err != nil {
			t.Fatal(err)
		}
	}
	st = svc.Stats()
	if st.DataPlane.Ticks != 12 {
		t.Errorf("ticks = %d, want 12", st.DataPlane.Ticks)
	}
	if st.DataPlane.PoolUsedGB <= 0 && st.DataPlane.SoftFaultGB <= 0 {
		t.Error("ticking admitted VMs moved no memory at all")
	}

	for _, vm := range admitted {
		released, err := svc.Release(vm)
		if err != nil || !released {
			t.Fatalf("release %d: %v %v", vm.ID, released, err)
		}
	}
	if st = svc.Stats(); st.DataPlane.AttachedVMs != 0 {
		t.Errorf("%d VMs still attached after release", st.DataPlane.AttachedVMs)
	}
}

// TestFirstTickReplaysSampleZero pins the working-set replay to the
// simulator's: the first tick after admission runs on each VM's first
// utilization sample, not its second.
func TestFirstTickReplaysSampleZero(t *testing.T) {
	svc, tr := dpService(t, agent.PolicyTrim)
	admitted := admitSome(t, svc, tr, 40)
	if err := svc.TickDataPlane(); err != nil {
		t.Fatal(err)
	}
	for _, vm := range admitted {
		sh := svc.shards[svc.routedShard(vm.ID)]
		sh.mu.Lock()
		got := sh.DP.Servers()[sh.DP.ServerOf(vm.ID)].Server.VM(vm.ID).WSS()
		sh.mu.Unlock()
		if want := vm.Alloc[resources.Memory] * vm.UtilAt(resources.Memory, vm.Start); got != want {
			t.Fatalf("vm %d working set %v after one tick, want sample 0's %v", vm.ID, got, want)
		}
	}
}

// TestDataPlaneStatsDeterministic runs the same admit/tick sequence on
// two services and requires identical data-plane aggregates.
func TestDataPlaneStatsDeterministic(t *testing.T) {
	run := func() DataPlaneStats {
		svc, tr := dpService(t, agent.PolicyExtend)
		admitSome(t, svc, tr, 30)
		for i := 0; i < 10; i++ {
			if err := svc.TickDataPlane(); err != nil {
				t.Fatal(err)
			}
		}
		return svc.Stats().DataPlane
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("data-plane stats diverge:\n  %+v\n  %+v", a, b)
	}
}

// TestDataPlaneConcurrentTicksAndAdmits exercises the shard locking under
// -race: admissions, releases and ticks interleave from multiple
// goroutines.
func TestDataPlaneConcurrentTicksAndAdmits(t *testing.T) {
	svc, tr := dpService(t, agent.PolicyMigrate)
	var eval []*trace.VM
	for i := range tr.VMs {
		if tr.VMs[i].Start >= tr.Horizon/2 {
			eval = append(eval, &tr.VMs[i])
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, vm := range eval {
			if _, err := svc.Admit(vm); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := svc.TickDataPlane(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if st := svc.Stats(); st.DataPlane.Ticks != 20 {
		t.Errorf("ticks = %d", st.DataPlane.Ticks)
	}
}

// TestReportDrivesWSS pins the live-report path: a pushed utilization
// fraction replaces the age-indexed replay as the VM's working-set
// driver, reports for unadmitted VMs are refused, and the override
// survives subsequent ticks.
func TestReportDrivesWSS(t *testing.T) {
	svc, tr := dpService(t, agent.PolicyTrim)
	admitted := admitSome(t, svc, tr, 5)
	vm := admitted[0]

	applied, err := svc.Report(vm, 0.5)
	if err != nil || !applied {
		t.Fatalf("Report(admitted) = %v, %v", applied, err)
	}
	ci := svc.routedShard(vm.ID)
	sh := svc.shards[ci]
	sh.mu.Lock()
	tracked := sh.dpVMs[vm.ID]
	mem := sh.DP.Servers()[sh.DP.ServerOf(vm.ID)].Server.VM(vm.ID)
	sh.mu.Unlock()
	want := 0.5 * vm.Alloc[resources.Memory]
	if !tracked.hasReport || tracked.wss() != want {
		t.Errorf("tracked wss %v, want reported %v", tracked.wss(), want)
	}
	if mem.WSS() != want {
		t.Errorf("memsim wss %v, want %v", mem.WSS(), want)
	}
	// The report keeps driving the working set across ticks (the
	// age-indexed series no longer applies).
	for i := 0; i < 3; i++ {
		if err := svc.TickDataPlane(); err != nil {
			t.Fatal(err)
		}
	}
	sh.mu.Lock()
	got := sh.DP.Servers()[sh.DP.ServerOf(vm.ID)].Server.VM(vm.ID).WSS()
	sh.mu.Unlock()
	if got != want {
		t.Errorf("wss after ticks %v, want sticky reported %v", got, want)
	}
	// Out-of-range fractions clamp.
	if applied, err := svc.Report(vm, 7); err != nil || !applied {
		t.Fatal("clamped report must apply")
	}
	if w := tracked.wss(); w != vm.Alloc[resources.Memory] {
		t.Errorf("wss %v after util 7, want clamped to alloc %v", w, vm.Alloc[resources.Memory])
	}

	// Unadmitted VM: refused.
	var stranger *trace.VM
	for i := range tr.VMs {
		if svc.routedShard(tr.VMs[i].ID) < 0 {
			stranger = &tr.VMs[i]
			break
		}
	}
	if applied, err := svc.Report(stranger, 0.5); err != nil || applied {
		t.Errorf("Report(unadmitted) = %v, %v; want false, nil", applied, err)
	}

	// Disabled data plane: typed error.
	plain := newTestService(t, DefaultConfig())
	if _, err := plain.Report(stranger, 0.5); !errors.Is(err, ErrDataPlaneDisabled) {
		t.Errorf("Report without data plane = %v, want ErrDataPlaneDisabled", err)
	}
}

// TestReportEndpoint pins the /v1/report wire format and error codes.
func TestReportEndpoint(t *testing.T) {
	svc, tr := dpService(t, agent.PolicyTrim)
	admitted := admitSome(t, svc, tr, 3)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	post := func(body string) (int, string) {
		resp, err := srv.Client().Post(srv.URL+"/v1/report", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := post(fmt.Sprintf(`{"vm":%d,"memory_util":0.42}`, admitted[0].ID))
	if code != 200 || body != fmt.Sprintf("{\"vm\":%d,\"applied\":true}\n", admitted[0].ID) {
		t.Errorf("report = %d %q", code, body)
	}
	if code, _ := post(`{"vm":999999,"memory_util":0.4}`); code != 404 {
		t.Errorf("unknown vm = %d, want 404", code)
	}
	if code, _ := post(`{"bad json`); code != 400 {
		t.Errorf("malformed = %d, want 400", code)
	}
	var unadmitted int
	for i := range tr.VMs {
		if svc.routedShard(tr.VMs[i].ID) < 0 {
			unadmitted = tr.VMs[i].ID
			break
		}
	}
	if code, _ := post(fmt.Sprintf(`{"vm":%d,"memory_util":0.4}`, unadmitted)); code != 409 {
		t.Errorf("unadmitted vm = %d, want 409", code)
	}
}

// TestAdmitPressureAware pins ROADMAP item 5: with AdmitPressureFrac
// set, an oversubscribed VM whose scheduled VA demand no pool can absorb
// is rejected with a typed reason even though raw capacity exists, while
// fully-guaranteed VMs (no pool footprint) still admit.
func TestAdmitPressureAware(t *testing.T) {
	tr := getTrace(t)
	sc := DefaultConfig()
	sc.Cache = testCache
	sc.FleetConfig = core.FleetConfigForPolicy(scheduler.PolicyAggrCoach)
	sc.DataPlane = true
	sc.MitigationPolicy = agent.PolicyTrim
	// An (effectively) unreachable bar: every oversubscribed admission
	// must be refused for pool pressure.
	sc.AdmitPressureFrac = 1e-9
	svc, err := New(tr, cluster.NewFleet(cluster.DefaultClusters(2)), sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	overRejected, guaranteed := 0, 0
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start < tr.Horizon/2 {
			continue
		}
		res, err := svc.Admit(vm)
		if err != nil {
			t.Fatal(err)
		}
		if res.Oversubscribed && !res.Admitted && strings.Contains(res.Reason, "pool pressure") {
			overRejected++
		}
		if res.Admitted {
			guaranteed++
			if res.Oversubscribed {
				// An oversubscribed VM admitted under an impossible bar
				// can only mean its VA peak was zero.
				sh := svc.shards[res.Cluster]
				sh.mu.Lock()
				peak := core.VAPeakGB(sh.Sched.CVM(vm.ID))
				sh.mu.Unlock()
				if peak > 0 {
					t.Fatalf("vm %d with VA peak %v admitted past an impossible pressure bar", vm.ID, peak)
				}
			}
		}
	}
	if overRejected == 0 {
		t.Fatal("no oversubscribed admission was pressure-rejected")
	}
	if guaranteed == 0 {
		t.Fatal("pressure-aware admission also blocked pool-neutral VMs")
	}
	if st := svc.Stats(); st.DataPlane.PressureRejected != int64(overRejected) {
		t.Errorf("stats pressure_rejected %d, want %d", st.DataPlane.PressureRejected, overRejected)
	}
}

// serveHotColdFleet mirrors the simulator's escape-valve fixture: a hot
// single-server cluster whose pool is far too small next to a cold
// cluster with room to spare.
func serveHotColdFleet() *cluster.Fleet {
	return cluster.NewFleet([]cluster.Config{
		{Name: "hot", Spec: cluster.ServerSpec{Name: "small", Generation: 1,
			Capacity: resources.NewVector(64, 128, 40, 4096)}, Servers: 1},
		{Name: "cold", Spec: cluster.ServerSpec{Name: "big", Generation: 4,
			Capacity: resources.NewVector(320, 4096, 100, 16384)}, Servers: 4},
	})
}

// TestCrossShardHandoff drives coachd's two-phase handoff end to end:
// VMs admitted to the hot cluster contend its tiny pool, the agent
// live-migrates, the engine finds no same-shard target, and the handoff
// re-homes scheduler bookkeeping and memory into the cold cluster —
// after which Release must find the VM in its new shard.
func TestCrossShardHandoff(t *testing.T) {
	svc := handoffFixture(t)
	var moved []int
	for i := 0; i < 120 && len(moved) == 0; i++ {
		if err := svc.TickDataPlane(); err != nil {
			t.Fatal(err)
		}
		svc.routeMu.Lock()
		for id, ci := range svc.route {
			if ci >= 0 && svc.VM(id).HomeShard(len(svc.shards)) != ci {
				moved = append(moved, id)
			}
		}
		svc.routeMu.Unlock()
	}
	if len(moved) == 0 {
		t.Fatal("no VM was handed off cross-shard")
	}
	st := svc.Stats()
	if st.DataPlane.CrossShardMigrations == 0 {
		t.Error("stats carry no cross-shard migrations")
	}
	// The moved VM is fully consistent in its new shard: scheduler
	// bookkeeping, memory and utilization tracking all present.
	id := moved[0]
	ci := svc.routedShard(id)
	sh := svc.shards[ci]
	sh.mu.Lock()
	okSched := sh.Sched.ServerOf(id) >= 0
	okMem := sh.DP.ServerOf(id) >= 0
	okTracked := sh.dpVMs[id] != nil
	sh.mu.Unlock()
	if !okSched || !okMem || !okTracked {
		t.Fatalf("handed-off vm %d inconsistent in shard %d: sched=%v mem=%v tracked=%v",
			id, ci, okSched, okMem, okTracked)
	}
	// Release follows the route.
	released, err := svc.Release(svc.VM(id))
	if err != nil || !released {
		t.Fatalf("release of migrated vm = %v, %v", released, err)
	}
}

// TestStatsEndpointCarriesDataPlane pins the /v1/stats wire format.
func TestStatsEndpointCarriesDataPlane(t *testing.T) {
	svc, tr := dpService(t, agent.PolicyTrim)
	admitSome(t, svc, tr, 5)
	if err := svc.TickDataPlane(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		DataPlane DataPlaneStats `json:"data_plane"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.DataPlane.Enabled || body.DataPlane.Ticks != 1 || body.DataPlane.AttachedVMs == 0 {
		t.Errorf("wire data_plane wrong: %+v", body.DataPlane)
	}
}
