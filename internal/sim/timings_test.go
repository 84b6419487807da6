package sim

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"github.com/coach-oss/coach/internal/agent"
)

// TestRunTimings runs the tick loop without and with the exchange, timed
// and untimed. Timing must not change the Result, Result.Timings must be
// the configured tree, every stage the run passes through must have
// recorded its calls — one per shard tick for the shard stages, one per
// tick for the exchange, and one per run for the phases around the loop —
// and the loop's stages must not add up to more than its wall time.
func TestRunTimings(t *testing.T) {
	tr, fleet := fixtures(t)
	decoupled := dataPlaneConfig(t, agent.PolicyTrim)
	exchanging := dataPlaneConfig(t, agent.PolicyMigrate)
	exchanging.CrossShardMigration = true
	for name, cfg := range map[string]Config{"decoupled": decoupled, "exchanging": exchanging} {
		t.Run(name, func(t *testing.T) {
			cfg.Model = sharedModel(t, cfg)
			want, err := Run(tr, fleet, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Timings = NewTimings()
			got, err := Run(tr, fleet, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Timings != cfg.Timings {
				t.Fatal("Result.Timings is not Config.Timings")
			}
			if err := gob.NewEncoder(new(bytes.Buffer)).Encode(got); err != nil {
				t.Fatalf("a timed Result must gob-encode: %v", err)
			}
			got.Timings = nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("timing changed the Result:\n timed   %+v\n untimed %+v", summary(got), summary(want))
			}
			ticks := int64(tr.Horizon - cfg.TrainUpTo)
			shardTicks := ticks * int64(fleet.NumClusters())
			calls := map[int]int64{
				stageRun: 1, stageBuild: 2, stageArrivals: 1, stageTicks: 1, stageJudging: 1,
				stagePlacement: shardTicks, stageDeltaPass: shardTicks, stageDataPlane: shardTicks, stageContention: shardTicks,
				stageImbalance: 1, stageBarrier: 1, stageExchange: 0, StageTrace: 0, StageSharedTrain: 0, stageTrain: 0,
			}
			if cfg.CrossShardMigration {
				calls[stageImbalance], calls[stageBarrier], calls[stageExchange] = ticks, ticks, ticks
			}
			for id, want := range calls {
				if _, got, _ := cfg.Timings.Read(id); got != want {
					t.Errorf("stage %q: %d calls, want %d", stages[id].Name, got, want)
				}
			}
			// The loop's children share its wall time: the shard stages
			// at their workers' share, the imbalance and barrier the rest.
			loop, _, _ := cfg.Timings.Read(stageTicks)
			var children int64
			for id := stagePlacement; id <= stageBarrier; id++ {
				ns, _, _ := cfg.Timings.Read(id)
				if ns < 0 {
					t.Errorf("stage %q: %d ns", stages[id].Name, ns)
				}
				children += ns
			}
			if children > loop {
				t.Errorf("the tick loop's stages add up to %d ns, more than its %d ns", children, loop)
			}
			if table := cfg.Timings.String(); !strings.Contains(table, "    barrier") || !strings.Contains(table, "leaves cover") {
				t.Errorf("table lacks the nested tick loop or its coverage line:\n%s", table)
			}
		})
	}
}
