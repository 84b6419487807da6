package sim

import (
	"math"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

var (
	simTrace *trace.Trace
	simFleet *cluster.Fleet
)

func fixtures(t *testing.T) (*trace.Trace, *cluster.Fleet) {
	t.Helper()
	if simTrace == nil {
		sp, err := scenario.Preset("capacity")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.GenerateScenario(sp.Scaled(250, 25))
		if err != nil {
			t.Fatal(err)
		}
		simTrace = tr
		simFleet = cluster.NewFleet(cluster.DefaultClusters(1))
	}
	return simTrace, simFleet
}

func TestRunValidation(t *testing.T) {
	tr, fleet := fixtures(t)
	cfg := ConfigForPolicy(scheduler.PolicyCoach)
	cfg.TrainUpTo = 0
	if _, err := Run(tr, fleet, cfg); err == nil {
		t.Error("zero TrainUpTo must fail")
	}
	cfg.TrainUpTo = tr.Horizon + 1
	if _, err := Run(tr, fleet, cfg); err == nil {
		t.Error("TrainUpTo beyond horizon must fail")
	}
	cfg = ConfigForPolicy(scheduler.PolicyCoach)
	cfg.TrainUpTo = tr.Horizon / 2
	cfg.Windows = timeseries.Windows{PerDay: 5}
	if _, err := Run(tr, fleet, cfg); err == nil {
		t.Error("windows that do not divide the day must fail")
	}
	// PolicyNone trains nothing, so the shard build alone must reject a
	// percentile the judge could not select.
	cfg = ConfigForPolicy(scheduler.PolicyNone)
	cfg.TrainUpTo = tr.Horizon / 2
	for _, p := range []float64{-1, 100.5, math.NaN()} {
		cfg.Percentile = p
		if _, err := Run(tr, fleet, cfg); err == nil {
			t.Errorf("percentile %v must fail", p)
		}
	}
	cfg = ConfigForPolicy(scheduler.PolicyCoach)
	cfg.TrainUpTo = tr.Horizon / 2
	bad := &cluster.Fleet{
		Clusters: cluster.DefaultClusters(1)[:2],
		Servers:  []cluster.Server{{ID: 0, Cluster: 5, Spec: cluster.Generations[0]}},
	}
	if _, err := Run(tr, bad, cfg); err == nil {
		t.Error("fleet with out-of-range cluster index must fail, not panic")
	}
}

func runPolicy(t *testing.T, p scheduler.PolicyKind) *Result {
	t.Helper()
	tr, fleet := fixtures(t)
	cfg := ConfigForPolicy(p)
	cfg.TrainUpTo = tr.Horizon / 2
	res, err := Run(tr, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunAccounting(t *testing.T) {
	res := runPolicy(t, scheduler.PolicyCoach)
	if res.Requested != res.Placed+res.Rejected {
		t.Errorf("requested %d != placed %d + rejected %d", res.Requested, res.Placed, res.Rejected)
	}
	if res.Placed == 0 {
		t.Fatal("nothing placed")
	}
	if f := res.PlacedFrac(); f < 0 || f > 1 {
		t.Errorf("placed frac %v", f)
	}
	if f := res.CPUViolationFrac(); f < 0 || f > 1 {
		t.Errorf("cpu violation frac %v", f)
	}
	if f := res.MemViolationFrac(); f < 0 || f > 1 {
		t.Errorf("mem violation frac %v", f)
	}
	if res.UsedServers <= 0 {
		t.Error("no servers used")
	}
}

func TestNonePolicyIsFullyGuaranteed(t *testing.T) {
	res := runPolicy(t, scheduler.PolicyNone)
	if res.Oversubscribed != 0 {
		t.Errorf("None policy oversubscribed %d VMs", res.Oversubscribed)
	}
	if len(res.Outcomes) != 0 {
		t.Error("None policy must produce no prediction outcomes")
	}
	// No oversubscription means backed = allocation: memory demand can
	// never exceed it.
	if res.MemViolations != 0 {
		t.Errorf("None policy has %d memory violations", res.MemViolations)
	}
}

func TestCoachOversubscribes(t *testing.T) {
	res := runPolicy(t, scheduler.PolicyCoach)
	if res.Oversubscribed == 0 {
		t.Error("Coach policy never oversubscribed")
	}
	if len(res.Outcomes) != res.Oversubscribed {
		t.Errorf("outcomes %d != oversubscribed %d", len(res.Outcomes), res.Oversubscribed)
	}
}

func TestCoachPlacesAtLeastAsMuchAsNone(t *testing.T) {
	none := runPolicy(t, scheduler.PolicyNone)
	coach := runPolicy(t, scheduler.PolicyCoach)
	// On this ample fleet both should place everything; the invariant we
	// assert is that oversubscription never reduces capacity.
	if coach.Placed < none.Placed {
		t.Errorf("Coach placed %d < None %d", coach.Placed, none.Placed)
	}
}

func TestOutcomeMetricsBounded(t *testing.T) {
	res := runPolicy(t, scheduler.PolicyCoach)
	for _, k := range []resources.Kind{resources.CPU, resources.Memory} {
		if v := res.MeanOverAllocFrac(k); v < 0 || v > 1 {
			t.Errorf("over-alloc frac %v for %v", v, k)
		}
		if v := res.UnderAllocFrac(k); v < 0 || v > 1 {
			t.Errorf("under-alloc frac %v for %v", v, k)
		}
	}
}

func TestUnderAllocationsAreRare(t *testing.T) {
	// Fig. 19b: the scheduling policy is robust against under-allocations.
	res := runPolicy(t, scheduler.PolicyCoach)
	if len(res.Outcomes) == 0 {
		t.Skip("no oversubscribed VMs")
	}
	if f := res.UnderAllocFrac(resources.Memory); f > 0.25 {
		t.Errorf("memory under-allocation fraction %v too high", f)
	}
}

func TestConfigForPolicy(t *testing.T) {
	if ConfigForPolicy(scheduler.PolicyAggrCoach).Percentile != 50 {
		t.Error("AggrCoach must use P50")
	}
	if ConfigForPolicy(scheduler.PolicyCoach).Percentile != 95 {
		t.Error("Coach must use P95")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runPolicy(t, scheduler.PolicySingle)
	b := runPolicy(t, scheduler.PolicySingle)
	if a.Placed != b.Placed || a.CPUViolations != b.CPUViolations || a.MemViolations != b.MemViolations {
		t.Error("simulation is not deterministic")
	}
}
