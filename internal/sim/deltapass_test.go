package sim

import (
	"math"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

// TestEventDeltaPassStaleAndDuplicateSlots drives a shard through one
// tick whose event delta pass sees, at once:
//   - crash re-admissions whose stale queue events also pop (each record
//     is named twice and must be visited once),
//   - a VM immigrated at the previous sample boundary (its record sits
//     after the re-admitted ones and was queued by the exchange),
//   - a VM that left the shard with its change event still queued (its
//     id no longer resolves and must be skipped).
//
// The reference's full pass (referenceAdvance) is the oracle: the event
// pass must leave every server's demand with the same bits and count the
// same visits.
func TestEventDeltaPassStaleAndDuplicateSlots(t *testing.T) {
	const trainUpTo, horizon, tick = 10, 20, 13
	// Every VM's utilization changes at offset tick-trainUpTo, so each has
	// a queued event at tick. b, a and d all land on one server at tick,
	// and their fractions are chosen so that summing them grouped in any
	// order but position order (b, a, d) gives different bits.
	series := func(before, after float64) timeseries.Series {
		s := make(timeseries.Series, horizon-trainUpTo)
		for i := range s {
			s[i] = before
			if i >= tick-trainUpTo {
				s[i] = after
			}
		}
		return s
	}
	vm := func(id, cluster int, cpu, mem float64) trace.VM {
		v := trace.VM{ID: id, Start: trainUpTo, End: horizon, Cluster: cluster,
			Alloc: resources.NewVector(4, 16, 2, 64)}
		for _, k := range resources.Kinds {
			v.Util[k] = series(0.1, 0.3)
		}
		v.Util[resources.CPU] = series(0.1+cpu, 0.7-cpu)
		v.Util[resources.Memory] = series(0.2+mem, 0.9-mem)
		return v
	}
	const a, c, d, b = 0, 1, 2, 3
	tr := &trace.Trace{Horizon: horizon, VMs: []trace.VM{
		vm(a, 0, 0.011, 0.011), // crashed and re-admitted at tick
		vm(c, 0, 0.031, 0.11),  // leaves the shard before tick
		vm(d, 0, 0.061, 0.03),  // co-located with a, re-admitted too
		vm(b, 1, 0.017, 0.019), // homed elsewhere, immigrates before tick
	}}
	clusters := cluster.DefaultClusters(3)[:2]
	fleet := cluster.NewFleet(clusters)

	run := func(name string, reference bool) (*shardState, int64) {
		var visits int64
		cfg := ConfigForPolicy(scheduler.PolicyNone)
		cfg.TrainUpTo, cfg.VisitCounter = trainUpTo, &visits
		states, err := buildShards(tr, fleet, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := states[0]
		step := func(now int) {
			t.Helper()
			var err error
			if reference {
				if err = st.arrive(now); err == nil {
					err = st.referenceAdvance(now)
				}
			} else {
				err = st.step(now)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for now := trainUpTo; now < tick; now++ {
			step(now)
		}
		ra, rd := st.recs[st.pos[a]], st.recs[st.pos[d]]
		if ra.srv != rd.srv || len(st.recs) != 3 {
			t.Fatalf("%s: fixture wants a and d co-located among 3 records, got %d records, servers %d and %d",
				name, len(st.recs), ra.srv, rd.srv)
		}
		// The boundary before tick: c emigrates, b immigrates onto a
		// server the crash spares.
		st.sh.Sched.Remove(c)
		st.removeTracked(c)
		rb := tr.VMs[b]
		st.addImmigrated(migRequest{
			MigrationRequest: core.MigrationRequest{VMID: b, Tick: tick - 1 - trainUpTo},
			vm:               &tr.VMs[b],
			changes:          rb.ChangePoints(),
		}, (ra.srv+1)%len(st.servers))
		if !reference {
			due := st.queue.buckets[tick-st.queue.base]
			if !sameIDs(due, []int{a, b, c, d}) {
				t.Fatalf("queue bucket at tick = %v, want a, b, c and d", due)
			}
		}
		st.fEvents = []fault.Event{{Tick: tick - trainUpTo, Server: ra.srv}}
		before := visits
		step(tick)
		if st.sh.Stats.ReplacedVMs != 2 {
			t.Fatalf("%s: crash re-admitted %d VMs, want 2", name, st.sh.Stats.ReplacedVMs)
		}
		if srv := st.recs[st.pos[b]].srv; st.recs[st.pos[a]].srv != srv || st.recs[st.pos[d]].srv != srv {
			t.Fatalf("%s: fixture wants b, a and d on one server after the crash", name)
		}
		return st, visits - before
	}
	ref, refVisits := run("reference", true)
	event, eventVisits := run("event", false)
	if eventVisits != refVisits || refVisits != 3 {
		t.Fatalf("visits at tick: event %d, reference %d, want 3 each", eventVisits, refVisits)
	}
	for i := range ref.demand {
		for _, k := range resources.Kinds {
			rb, eb := math.Float64bits(ref.demand[i][k]), math.Float64bits(event.demand[i][k])
			if rb != eb {
				t.Fatalf("server %d %v demand: event %#x, reference %#x", i, k, eb, rb)
			}
		}
	}
}
