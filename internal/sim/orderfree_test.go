package sim

import (
	"testing"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

// TestContentionOrderFree is the oracle for the running demand totals.
// After every tick of a replay it recomputes each occupied server's demand
// from the shard's records, summed in VM-id order, and requires the
// replay's totals to equal it and its CPU and memory contention verdicts
// to be the recomputation's; the scheduler's occupied servers must be
// the ones the records occupy. The replay reaches its totals in event order
// instead — arrivals, deltas, departures, crash evictions and data-plane
// migrations — so a total that depended on the order of its terms, or a
// path that dropped a term, would show here. Sparse-churn runs under
// AggrCoach with the data plane migrating, at two trace seeds, on
// cluster C2: its 96-core servers contend above 48 cores, a sum the
// preset's 0.3-quantum utilization levels reach exactly, so many verdicts
// are ties. The dense capacity preset and the chaos preset, whose crashes
// evict and re-admit VMs, run at the same scale.
func TestContentionOrderFree(t *testing.T) {
	for _, tc := range []struct {
		name, preset string
		seed         int64
		// The fixture must reach the CPU limit exactly / crash servers.
		ties, crashes bool
	}{
		{"sparse-churn/seed0", "sparse-churn", 0, true, false},
		{"sparse-churn/seed7", "sparse-churn", 7, true, false},
		{"capacity", "capacity", 0, false, false},
		{"chaos", "chaos", 0, false, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			full, err := scenario.Preset(tc.preset)
			if err != nil {
				t.Fatal(err)
			}
			sp := full.Scaled(1500, 30)
			if tc.seed != 0 {
				sp.Seed = tc.seed
			}
			tr, err := trace.GenerateScenario(sp)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ConfigForPolicy(scheduler.PolicyAggrCoach)
			cfg.TrainUpTo = tr.Horizon / 2
			cfg.DataPlane = true
			cfg.MitigationPolicy = agent.PolicyMigrate
			cfg.DataPlanePoolFrac, cfg.DataPlaneUnallocFrac = 0.02, 0.02
			fleet := cluster.NewFleet(cluster.DefaultClusters(30)[1:2])
			cfg.Scenario = sp // compiles the chaos preset's faults
			tr, cfg, states, err := prepare(tr, fleet, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := states[0]
			sums := make([]resources.Units, len(st.servers))
			vms := make([]int, len(st.servers))
			var checked, cpuViol, memViol, cpuTies int
			for now := cfg.TrainUpTo; now < tr.Horizon; now++ {
				if err := st.step(now); err != nil {
					t.Fatal(err)
				}
				clear(sums)
				clear(vms)
				for id := range st.pos {
					if p := st.pos[id]; p >= 0 {
						srv := st.recs[p].srv
						sums[srv] = sums[srv].Add(tr.VMs[id].DemandAt(now).Units())
						vms[srv]++
					}
				}
				for i, sum := range sums {
					if (vms[i] > 0) != st.servers[i].Used() {
						t.Fatalf("tick %d server %d: %d tracked VMs, scheduler says used %v", now, i, vms[i], st.servers[i].Used())
					}
					if vms[i] == 0 {
						continue
					}
					if sum != st.demand[i] {
						t.Fatalf("tick %d server %d: running demand %v, recomputed %v", now, i, st.demand[i], sum)
					}
					cpu := sum[resources.CPU] > st.cpuLimit[i]
					mem := sum[resources.Memory] > st.servers[i].Pool.BackedUnits()[resources.Memory]
					if cpu != st.violCPU[i] || mem != st.violMem[i] {
						t.Fatalf("tick %d server %d: replay says cpu %v mem %v, recomputation cpu %v mem %v",
							now, i, st.violCPU[i], st.violMem[i], cpu, mem)
					}
					checked++
					if cpu {
						cpuViol++
					}
					if mem {
						memViol++
					}
					if sum[resources.CPU] == st.cpuLimit[i] {
						cpuTies++
					}
				}
			}
			stats := st.sh.Stats
			if cpuViol == 0 || stats.SameShardMigrations == 0 || tc.ties && cpuTies == 0 || tc.crashes && stats.EvictedVMs == 0 {
				t.Fatalf("fixture regression: %d CPU-contended server-ticks, %d at the limit, %d migrations, %d evictions",
					cpuViol, cpuTies, stats.SameShardMigrations, stats.EvictedVMs)
			}
			t.Logf("%d server-ticks: %d CPU-contended, %d memory-contended, %d exactly at the CPU limit; %d migrations, %d evictions",
				checked, cpuViol, memViol, cpuTies, stats.SameShardMigrations, stats.EvictedVMs)
		})
	}
}

// TestExactUnits ties the replay's integer demand to the float demand
// serve and the data plane compute from the same sample: for every
// DefaultConfigs allocation and every utilization code, quarters × code
// (placedRec) equals the float product alloc × Frac(code) rounded to
// Units. So sums of either are the same integers.
func TestExactUnits(t *testing.T) {
	for _, cfg := range trace.DefaultConfigs() {
		q, ok := cfg.Alloc.Quarters()
		if !ok {
			t.Fatalf("%s: allocation %v is not in whole quarter units", cfg.Name, cfg.Alloc)
		}
		for _, k := range resources.Kinds {
			for c := 0; c <= timeseries.CodeScale; c++ {
				exact := int64(q[k]) * int64(c)
				if got := resources.ToUnit(cfg.Alloc[k] * timeseries.Frac(uint16(c))); got != exact {
					t.Fatalf("%s %v code %d: float demand rounds to %d Units, quarters × code is %d", cfg.Name, k, c, got, exact)
				}
			}
		}
	}
}
