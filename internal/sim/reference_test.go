package sim

import (
	"bytes"
	"sync/atomic"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

// runReference is the replay the event-driven core is checked against.
// It drives the same shard states Run builds — the same arrive,
// applyFaults, dataPlaneTick, exchange and seal — serially, one
// tick of every shard at a time with the exchange after each, but
// replaces each shard's incremental bookkeeping with full recomputation
// (referenceAdvance): every placed VM is visited, every frame walked and
// every server scanned each tick. The event queue, the dirty-server list
// and the steady-frame caches are never trusted, so a Result that
// matches runReference byte for byte shows that everything those
// shortcuts skipped was indeed unchanged.
func runReference(tr *trace.Trace, fleet *cluster.Fleet, cfg Config) (*Result, error) {
	tr, cfg, states, err := prepare(tr, fleet, cfg)
	if err != nil {
		return nil, err
	}
	x := newExchange(states)
	for t := cfg.TrainUpTo; t < tr.Horizon; t++ {
		for _, st := range states {
			if err := st.arrive(t); err != nil {
				return nil, err
			}
			if err := st.referenceAdvance(t); err != nil {
				return nil, err
			}
		}
		if err := x.apply(); err != nil {
			return nil, err
		}
	}
	return seal(states, cfg, tr.Horizon-cfg.TrainUpTo), nil
}

// referenceAdvance is advance by full recomputation: the same fault
// step first, then a delta pass that visits every record in position
// order, folding in each demand change and driving the working set;
// every steady-frame cache is invalidated so observeSparse walks every
// frame; occupancy and contention are recounted from the records and a
// scan of every server. The event scratch the tick's placements and
// mutations left — slots, the queue's due bucket and the dirty list — is
// dropped unread.
func (st *shardState) referenceAdvance(t int) error {
	if err := st.applyFaults(t); err != nil {
		return err
	}
	for i := range st.recs {
		r := &st.recs[i]
		vm := &st.tr.VMs[r.id]
		var cur timeseries.Codes
		for k, x := range vm.Runs.At(t - vm.Start) {
			cur[k] = timeseries.ToCode(x)
		}
		if cur != r.last {
			d := vm.DemandAt(t)
			st.demand[r.srv] = st.demand[r.srv].Add(d.Units()).Sub(r.units())
			r.last = cur
			if st.sh.DP != nil {
				st.sh.DP.SetWSS(vm.ID, d[resources.Memory])
			}
		}
	}
	if st.cfg.VisitCounter != nil {
		atomic.AddInt64(st.cfg.VisitCounter, int64(len(st.recs)))
	}

	if st.sh.DP != nil {
		for i := range st.obs {
			st.obs[i].valid = false
		}
		if err := st.dataPlaneTick(t - st.cfg.TrainUpTo); err != nil {
			return err
		}
	}

	vms := make([]int, len(st.servers))
	for _, r := range st.recs {
		vms[r.srv]++
	}
	used := 0
	for i := range st.servers {
		if vms[i] == 0 {
			continue
		}
		used++
		st.sr.serverTicks++
		if st.demand[i][resources.CPU] > st.cpuLimit[i] {
			st.sr.cpuViolations++
		}
		if st.demand[i][resources.Memory] > st.servers[i].Pool.BackedUnits()[resources.Memory] {
			st.sr.memViolations++
		}
	}
	st.sr.usedByTick[t-st.cfg.TrainUpTo] = used

	st.slots = st.queue.PopDue(t, st.slots)[:0]
	for _, i := range st.dirty {
		st.dirtyFlag[i] = false
	}
	st.dirty = st.dirty[:0]
	return nil
}

// TestEventCoreVisits pins the event core's reason to exist as a
// deterministic count: Config.VisitCounter totals the records the delta
// pass visits, which for the reference is every placed record every
// tick. On the change-sparse sparse-churn preset the reference must do
// at least 5× the event core's visits; on the dense capacity preset the
// event core may approach the reference but never exceed it. Both runs
// must also agree byte for byte.
func TestEventCoreVisits(t *testing.T) {
	for _, tc := range []struct {
		preset string
		ratio  int64 // reference visits >= ratio * event visits
	}{
		{"sparse-churn", 5},
		{"capacity", 1},
	} {
		tc := tc
		t.Run(tc.preset, func(t *testing.T) {
			t.Parallel()
			full, err := scenario.Preset(tc.preset)
			if err != nil {
				t.Fatal(err)
			}
			sp := full.Scaled(1000, 60)
			sp.Days = 7
			tr, err := trace.GenerateScenario(sp)
			if err != nil {
				t.Fatal(err)
			}
			fleet := cluster.NewFleet(cluster.DefaultClusters(110))
			cfg := ConfigForPolicy(scheduler.PolicyNone)
			cfg.TrainUpTo = tr.Horizon / 2

			var eventVisits, refVisits int64
			cfg.VisitCounter = &eventVisits
			ev, err := Run(tr, fleet, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.VisitCounter = &refVisits
			ref, err := runReference(tr, fleet, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Placed == 0 || ref.Placed < ref.Requested/2 {
				t.Fatalf("fixture regression: placed %d of %d", ref.Placed, ref.Requested)
			}
			if !bytes.Equal(encodeResult(t, ev), encodeResult(t, ref)) {
				t.Fatalf("event core diverges from the reference:\n  ref:   %+v\n  event: %+v", summary(ref), summary(ev))
			}
			if eventVisits == 0 || refVisits < tc.ratio*eventVisits {
				t.Errorf("visits: reference %d, event %d, want reference >= %d× event", refVisits, eventVisits, tc.ratio)
			}
			t.Logf("visits: reference %d, event %d (%.1f×)", refVisits, eventVisits, float64(refVisits)/float64(eventVisits))
		})
	}
}

// buildShards builds Run's replay states over tr and fleet with the given
// model (nil: every arrival takes the fully-guaranteed split).
func buildShards(tr *trace.Trace, fleet *cluster.Fleet, model *predict.LongTerm, cfg Config) ([]*shardState, error) {
	shards, err := cfg.NewShards(tr, fleet)
	if err != nil {
		return nil, err
	}
	return newShardStates(shards, tr, model, cfg), nil
}
