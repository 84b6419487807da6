package sim

import (
	"bytes"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

// TestFaultScheduleDeterminism is the fault-path determinism pin, run
// under -race in CI: the chaos preset's compiled schedule must produce
// byte-identical Results on repeated runs of the same configuration —
// the reference replay and Run at Workers 1/2/8 — and the fault counters
// must satisfy the accounting identities (every evicted VM is replaced
// or lost, one downtime tick minimum per displacement). Golden
// equivalence (golden_test.go) pins Run against the reference; this
// pins run-vs-run, which would catch nondeterminism that happened to
// bite both the same way.
func TestFaultScheduleDeterminism(t *testing.T) {
	full, err := scenario.Preset("chaos")
	if err != nil {
		t.Fatal(err)
	}
	sp := full.Scaled(200, 20)
	tr, err := trace.GenerateScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigForPolicy(scheduler.PolicyNone)
	cfg.TrainUpTo = tr.Horizon / 2
	cfg.Scenario = sp

	type variant struct {
		name    string
		run     func(*trace.Trace, *cluster.Fleet, Config) (*Result, error)
		workers int
	}
	variants := []variant{
		{"reference", runReference, 1},
		{"event-w1", Run, 1},
		{"event-w2", Run, 2},
		{"event-w8", Run, 8},
	}
	var golden []byte
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			c := cfg
			c.Workers = v.workers
			fleet := cluster.NewFleet(cluster.DefaultClusters(2))
			first, err := v.run(tr, fleet, c)
			if err != nil {
				t.Fatal(err)
			}
			f := first.Faults
			if f == nil || f.Crashes == 0 {
				t.Fatalf("fault schedule never fired: %+v", f)
			}
			if f.ReplacedVMs+f.LostVMs != f.EvictedVMs {
				t.Fatalf("eviction accounting broken: %d replaced + %d lost != %d evicted",
					f.ReplacedVMs, f.LostVMs, f.EvictedVMs)
			}
			if f.EvictedVMs > 0 && f.DowntimeTicks < f.EvictedVMs {
				t.Fatalf("downtime %d ticks < %d displacements", f.DowntimeTicks, f.EvictedVMs)
			}
			enc := encodeResult(t, first)
			again, err := v.run(tr, fleet, c)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, encodeResult(t, again)) {
				t.Fatalf("same config, different Results:\nfirst:  %+v\nsecond: %+v",
					summary(first), summary(again))
			}
			if golden == nil {
				golden = enc
			} else if !bytes.Equal(golden, enc) {
				t.Fatalf("%s diverges from the reference under faults: %+v", v.name, summary(first))
			}
		})
	}
}
