package sim

import (
	"bytes"
	"encoding/gob"
	"testing"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

// encodeResult gob-serializes a Result. Result has no maps or
// interfaces, so the encoding is deterministic and byte comparison is
// exact equality — including every float bit pattern.
func encodeResult(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenEquivalence is the wall the event-driven core stands behind:
// for every scenario preset, Run's Result must be gob-byte-identical to
// the full-recomputation reference's (runReference), at every worker
// count, on both the decoupled replay path (plain scheduler replay, no
// data plane) and the cross-shard-barrier path (data plane + migration
// mitigation + cross-shard exchange over a multi-cluster fleet). Run
// under -race in CI, this also races the per-shard state.
func TestGoldenEquivalence(t *testing.T) {
	for _, name := range scenario.PresetNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			full, err := scenario.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			sp := full.Scaled(250, 25)
			tr, err := trace.GenerateScenario(sp)
			if err != nil {
				t.Fatal(err)
			}

			base := ConfigForPolicy(scheduler.PolicyAggrCoach)
			base.TrainUpTo = tr.Horizon / 2
			// Threading the source spec lets Run compile its faults: section
			// (if any), so the chaos preset pins golden equivalence under an
			// active fault schedule too.
			base.Scenario = sp
			model, err := predict.TrainLongTerm(tr, base.TrainUpTo, base.TrainConfig())
			if err != nil {
				t.Fatal(err)
			}
			base.Model = model

			xshard := base
			xshard.DataPlane = true
			xshard.MitigationPolicy = agent.PolicyMigrate
			xshard.CrossShardMigration = true
			xshard.DataPlanePoolFrac = 0.02
			xshard.DataPlaneUnallocFrac = 0.02

			variants := []struct {
				name string
				cfg  Config
			}{
				{"plain", base},
				{"xshard", xshard},
			}
			for _, v := range variants {
				v := v
				t.Run(v.name, func(t *testing.T) {
					fleet := cluster.NewFleet(cluster.DefaultClusters(2))
					cfg := v.cfg
					ref, err := runReference(tr, fleet, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if ref.Requested == 0 || ref.Placed == 0 {
						t.Fatalf("fixture regression: no work done: %+v", summary(ref))
					}
					if len(sp.Faults) > 0 && (ref.Faults == nil || ref.Faults.Crashes == 0) {
						t.Fatalf("fixture regression: fault schedule never fired: %+v", ref.Faults)
					}
					golden := encodeResult(t, ref)
					for _, workers := range []int{1, 2, 8} {
						cfg.Workers = workers
						ev, err := Run(tr, fleet, cfg)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						if got := encodeResult(t, ev); !bytes.Equal(golden, got) {
							t.Errorf("Run (workers=%d) diverges from the reference:\n  ref: %+v\n  run: %+v",
								workers, summary(ref), summary(ev))
						}
					}
				})
			}
		})
	}
}
