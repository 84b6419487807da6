package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
)

// TestRunDeterministicAcrossWorkers is the hard requirement of the sharded
// engine: the merged Result — counters, peak server usage, and Outcomes
// (sorted by VMID) — must be identical whether shards replay serially or
// on any number of workers, including Workers 0 (GOMAXPROCS), the
// default the benchmark runs, and more workers than shards.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	tr, fleet := fixtures(t)
	for _, p := range []scheduler.PolicyKind{scheduler.PolicyCoach, scheduler.PolicyNone} {
		cfg := ConfigForPolicy(p)
		cfg.TrainUpTo = tr.Horizon / 2

		// Share one trained model so the comparison isolates the replay
		// engine (training is deterministic too, but retraining per worker
		// count would triple the test's cost).
		if p != scheduler.PolicyNone {
			model, err := predict.TrainLongTerm(tr, cfg.TrainUpTo, cfg.TrainConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg.Model = model
		}

		var base *Result
		for _, workers := range []int{1, 2, 8, 0, fleet.NumClusters() + 1} {
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

// TestOwnShards pins the gang's deal: equal shards go round robin, shard
// i to worker i mod w, and unequal ones largest first to the least-loaded
// worker, so the caller does not carry every large cluster.
func TestOwnShards(t *testing.T) {
	sized := func(servers ...int) []*shardState {
		states := make([]*shardState, len(servers))
		for i, n := range servers {
			states[i] = &shardState{servers: make([]*scheduler.ServerState, n)}
		}
		return states
	}
	for _, c := range []struct {
		servers []int
		w       int
		want    [][]int
	}{
		{[]int{30, 30, 30, 30, 30}, 2, [][]int{{0, 2, 4}, {1, 3}}},
		{[]int{30, 30, 30, 30, 30}, 3, [][]int{{0, 3}, {1, 4}, {2}}},
		{[]int{19, 6, 7, 6, 6, 6, 18, 6, 18, 6}, 2, [][]int{{0, 1, 2, 3, 5, 9}, {4, 6, 7, 8}}},
		{[]int{0, 0, 0}, 1, [][]int{{0, 1, 2}}},
	} {
		if got := ownShards(sized(c.servers...), c.w); !reflect.DeepEqual(got, c.want) {
			t.Errorf("ownShards(%v, %d) = %v, want %v", c.servers, c.w, got, c.want)
		}
	}
}

// TestReplayLeavesNoGoroutine: the replay's workers live for one run,
// whether it meets them once (no exchange) or every tick (exchanging).
// After Run returns, and after a replay that stops on a shard's error
// mid-run, the goroutine count is back where it was. No valid input
// makes a shard step fail, so the second replay corrupts one arrival's
// prediction in place: its CVM build fails at that tick.
func TestReplayLeavesNoGoroutine(t *testing.T) {
	tr, fleet := fixtures(t)
	plain := ConfigForPolicy(scheduler.PolicyCoach)
	plain.TrainUpTo = tr.Horizon / 2
	exchanging := dataPlaneConfig(t, agent.PolicyMigrate)
	exchanging.CrossShardMigration = true
	for _, c := range []struct {
		name       string
		cfg        Config
		exchanging bool
	}{{"one-epoch", plain, false}, {"exchanging", exchanging, true}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Model = sharedModel(t, cfg)
			cfg.Workers = fleet.NumClusters()
			before := runtime.NumGoroutine()
			if _, err := Run(tr, fleet, cfg); err != nil {
				t.Fatal(err)
			}
			awaitGoroutines(t, before)

			_, cfg, states, err := prepare(tr, fleet, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The last shard is never the caller's alone: with two or more
			// workers a worker beside the caller steps it.
			st := states[len(states)-1]
			a := len(st.oks) / 2
			for a < len(st.oks) && !st.oks[a] {
				a++
			}
			if a == len(st.oks) {
				t.Fatal("no predicted arrival in the second half of the last shard")
			}
			st.preds[a].Pct[resources.CPU] = nil
			if err := replay(states, tr, cfg, c.exchanging); err == nil {
				t.Fatal("a corrupt prediction must fail its shard's step")
			}
			awaitGoroutines(t, before)
		})
	}
}

// awaitGoroutines polls until no more than n goroutines run.
func awaitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the replay, %d before it", runtime.NumGoroutine()-n, n)
		}
	}
}
