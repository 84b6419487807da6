package sim

import (
	"reflect"
	"testing"

	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/scheduler"
)

// TestRunDeterministicAcrossWorkers is the hard requirement of the sharded
// engine: the merged Result — counters, peak server usage, and Outcomes
// (sorted by VMID) — must be identical whether shards replay serially or
// on any number of workers, including Workers 0 (GOMAXPROCS), the
// default the benchmark runs.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	tr, fleet := fixtures(t)
	for _, p := range []scheduler.PolicyKind{scheduler.PolicyCoach, scheduler.PolicyNone} {
		cfg := ConfigForPolicy(p)
		cfg.TrainUpTo = tr.Horizon / 2

		// Share one trained model so the comparison isolates the replay
		// engine (training is deterministic too, but retraining per worker
		// count would triple the test's cost).
		if p != scheduler.PolicyNone {
			ltCfg := cfg.LongTerm
			ltCfg.Windows = cfg.Windows
			ltCfg.Percentile = cfg.Percentile
			model, err := predict.TrainLongTerm(tr, cfg.TrainUpTo, ltCfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Model = model
		}

		var base *Result
		for _, workers := range []int{1, 2, 8, 0} {
			cfg.Workers = workers
			res, err := Run(tr, fleet, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", p, workers, err)
			}
			if base == nil {
				base = res
				continue
			}
			if !reflect.DeepEqual(base, res) {
				t.Errorf("%v: Workers=%d result differs from Workers=1:\n  base: %+v\n  got:  %+v",
					p, workers, summary(base), summary(res))
			}
		}
	}
}

// summary shrinks a Result for failure messages.
func summary(r *Result) map[string]int {
	return map[string]int{
		"requested":   r.Requested,
		"placed":      r.Placed,
		"rejected":    r.Rejected,
		"oversub":     r.Oversubscribed,
		"usedServers": r.UsedServers,
		"serverTicks": r.ServerTicks,
		"cpuViol":     r.CPUViolations,
		"memViol":     r.MemViolations,
		"outcomes":    len(r.Outcomes),
	}
}

// TestOutcomesSortedByVMID pins the documented merge order.
func TestOutcomesSortedByVMID(t *testing.T) {
	tr, fleet := fixtures(t)
	cfg := ConfigForPolicy(scheduler.PolicyCoach)
	cfg.TrainUpTo = tr.Horizon / 2
	cfg.Workers = 4
	res, err := Run(tr, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Outcomes); i++ {
		if res.Outcomes[i-1].VMID >= res.Outcomes[i].VMID {
			t.Fatalf("outcomes not sorted by VMID at %d: %d >= %d",
				i, res.Outcomes[i-1].VMID, res.Outcomes[i].VMID)
		}
	}
}

// TestRunParallelRace replays with maximum shard concurrency so
// `go test -race ./internal/sim/...` exercises the worker pool and the
// shared read-only model.
func TestRunParallelRace(t *testing.T) {
	tr, fleet := fixtures(t)
	cfg := ConfigForPolicy(scheduler.PolicyCoach)
	cfg.TrainUpTo = tr.Horizon / 2
	cfg.Workers = fleet.NumClusters()
	res, err := Run(tr, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requested == 0 || res.Placed == 0 {
		t.Fatalf("parallel run did no work: %+v", summary(res))
	}
}

// TestShardIndexFoldsClusters covers traces whose home-cluster indices
// exceed the fleet's cluster count (e.g. the default ten-cluster trace on
// a CapacityFleet subset).
func TestShardIndexFoldsClusters(t *testing.T) {
	tr, _ := fixtures(t)
	for i := range tr.VMs {
		got := tr.VMs[i].HomeShard(3)
		if got < 0 || got >= 3 {
			t.Fatalf("HomeShard(%d, 3) = %d", tr.VMs[i].Cluster, got)
		}
	}
}
