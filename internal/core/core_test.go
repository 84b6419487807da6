package core

import (
	"testing"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/memsim"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

func testTrace(t *testing.T) *trace.Trace {
	t.Helper()
	sp, err := scenario.Preset("capacity")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.GenerateScenario(sp.Scaled(200, 20))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestClusterManagerLifecycle(t *testing.T) {
	tr := testTrace(t)
	fleet := cluster.NewFleet(cluster.DefaultClusters(2))
	m, err := NewClusterManager(fleet, DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(tr, tr.Horizon/2); err != nil {
		t.Fatal(err)
	}
	if m.Model() == nil {
		t.Fatal("no model after Train")
	}

	placed := 0
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.End <= tr.Horizon/2 {
			continue
		}
		cvm, err := m.Request(vm)
		if err != nil {
			t.Fatal(err)
		}
		if !cvm.Guaranteed.FitsIn(vm.Alloc) {
			t.Fatalf("guaranteed %v exceeds allocation %v", cvm.Guaranteed, vm.Alloc)
		}
		if _, ok := m.Place(cvm); ok {
			placed++
		}
	}
	if placed == 0 {
		t.Fatal("nothing placed")
	}
	if m.Scheduler().Placed() != placed {
		t.Error("scheduler bookkeeping inconsistent")
	}

	// Remove everything; the fleet must drain.
	for i := range tr.VMs {
		m.Scheduler().Remove(tr.VMs[i].ID)
	}
	if m.Scheduler().Placed() != 0 {
		t.Error("deallocation left VMs behind")
	}
}

func TestClusterManagerDefaults(t *testing.T) {
	fleet := cluster.NewFleet(cluster.DefaultClusters(1))
	m, err := NewClusterManager(fleet, ClusterConfig{Policy: scheduler.PolicyCoach})
	if err != nil {
		t.Fatal(err)
	}
	// Without training, requests must fall back to fully guaranteed.
	vm := &trace.VM{ID: 1, Alloc: resources.NewVector(4, 16, 2, 128)}
	cvm, err := m.Request(vm)
	if err != nil {
		t.Fatal(err)
	}
	if cvm.Guaranteed != vm.Alloc {
		t.Error("untrained manager must fully guarantee")
	}
}

func TestServerManager(t *testing.T) {
	sm, err := NewServerManager(ServerConfig{Memory: memsim.DefaultConfig(), Agent: agent.DefaultConfig(), PoolGB: 8, UnallocatedGB: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t)
	fleet := cluster.NewFleet(cluster.DefaultClusters(1))
	m, err := NewClusterManager(fleet, DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(tr, tr.Horizon/2); err != nil {
		t.Fatal(err)
	}
	var attached int
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.MemoryGB() > 16 {
			continue
		}
		cvm, err := m.Request(vm)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := memsim.NewVMMem(cvm.ID, cvm.Alloc[resources.Memory], cvm.Guaranteed[resources.Memory])
		if err != nil {
			t.Fatal(err)
		}
		if err := sm.Server.AddVM(mem); err != nil {
			t.Fatal(err)
		}
		mem.SetWSS(vm.MemoryGB() * 0.5)
		attached++
		if attached == 2 {
			break
		}
	}
	if attached != 2 {
		t.Fatal("could not attach two VMs")
	}
	for i := 0; i < 30; i++ {
		st, err := sm.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != 2 {
			t.Fatalf("tick stats for %d VMs, want 2", st.Len())
		}
	}
}
