package sim

import (
	"math/rand"
	"slices"
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
// pass must leave every server's demand equal to the reference's and
// count the same visits.
func TestEventDeltaPassStaleAndDuplicateSlots(t *testing.T) {
	const trainUpTo, horizon, tick = 10, 20, 13
	// Every VM's utilization changes at offset tick-trainUpTo, so each has
	// a queued event at tick. b, a and d all land on one server at tick.
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
		var util [resources.NumKinds]timeseries.Series
		for _, k := range resources.Kinds {
			util[k] = series(0.1, 0.3)
		}
		util[resources.CPU] = series(0.1+cpu, 0.7-cpu)
		util[resources.Memory] = series(0.2+mem, 0.9-mem)
		return trace.VM{ID: id, Start: trainUpTo, End: horizon, Cluster: cluster,
			Alloc: resources.NewVector(4, 16, 2, 64), Runs: timeseries.NewRuns(util)}
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
		st.addImmigrated(migRequest{
			MigrationRequest: core.MigrationRequest{VMID: b, Tick: tick - 1 - trainUpTo},
			vm:               &tr.VMs[b],
			cur:              tr.VMs[b].Runs.CursorAt(trainUpTo, trainUpTo),
		}, int(ra.srv+1)%len(st.servers))
		if !reference {
			// a, c and d wait in the queue; the immigrant b in the slots.
			due := append(slices.Clone(st.queue.buckets[tick-st.queue.base]), st.slots...)
			if !sameIDs(due, []int{a, b, c, d}) {
				t.Fatalf("due at tick = %v, want a, b, c and d", due)
			}
		}
		st.sh.Faults = []fault.Event{{Tick: tick - trainUpTo, Server: int(ra.srv)}}
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
		if ref.demand[i] != event.demand[i] {
			t.Fatalf("server %d demand: event %v, reference %v", i, event.demand[i], ref.demand[i])
		}
	}
}

// TestDeltaPassDenseBlocks drives the dense-block path of the delta pass
// through its edges. A dense VM (every sample its own run) reads its
// demand from a block of staged samples, refilled from its run cursor
// every denseBlockLen ticks; each case moves blocks or cursors between
// refills. After every tick each shard's per-server demand must equal
// the reference's from per-sample reads (referenceAdvance), and
// the event core must visit what it visited before blocks existed: every
// dense record every tick, a sparse record only when placed or at a run
// start.
func TestDeltaPassDenseBlocks(t *testing.T) {
	const trainUpTo, horizon = 10, 10 + 3*denseBlockLen + 7
	rng := rand.New(rand.NewSource(7))
	// dense gives vm a series whose every sample differs from the last.
	dense := func(id, cluster, start, end int) trace.VM {
		var util [resources.NumKinds]timeseries.Series
		for k := range util {
			util[k] = make(timeseries.Series, end-start)
			for i := range util[k] {
				util[k][i] = 0.05 + 0.9*rng.Float64()
			}
		}
		return trace.VM{ID: id, Start: start, End: end, Cluster: cluster,
			Alloc: resources.NewVector(4, 16, 2, 64), Runs: timeseries.NewRuns(util)}
	}
	// sparse gives vm two runs, the second from trace sample change.
	sparse := func(id, cluster, start, end, change int) trace.VM {
		var util [resources.NumKinds]timeseries.Series
		for k := range util {
			util[k] = make(timeseries.Series, end-start)
			for i := range util[k] {
				util[k][i] = 0.3
				if start+i >= change {
					util[k][i] = 0.6
				}
			}
		}
		return trace.VM{ID: id, Start: start, End: end, Cluster: cluster,
			Alloc: resources.NewVector(4, 16, 2, 64), Runs: timeseries.NewRuns(util)}
	}
	// run replays vms on two clusters through the event core and the
	// reference side by side, calling boundary on both before each tick
	// (event tells which), and returns the visits per tick of each.
	type visits struct{ event, ref []int64 }
	run := func(t *testing.T, vms []trace.VM, boundary func(now int, states []*shardState, event bool)) visits {
		t.Helper()
		tr := &trace.Trace{Horizon: horizon, VMs: vms}
		fleet := cluster.NewFleet(cluster.DefaultClusters(3)[:2])
		build := func(counter *int64) []*shardState {
			cfg := ConfigForPolicy(scheduler.PolicyNone)
			cfg.TrainUpTo, cfg.VisitCounter = trainUpTo, counter
			states, err := buildShards(tr, fleet, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return states
		}
		var evCount, refCount int64
		ev, ref := build(&evCount), build(&refCount)
		var v visits
		for now := trainUpTo; now < horizon; now++ {
			boundary(now, ev, true)
			boundary(now, ref, false)
			evBefore, refBefore := evCount, refCount
			for i := range ev {
				if err := ev[i].step(now); err != nil {
					t.Fatal(err)
				}
				if err := ref[i].arrive(now); err != nil {
					t.Fatal(err)
				}
				if err := ref[i].referenceAdvance(now); err != nil {
					t.Fatal(err)
				}
			}
			v.event, v.ref = append(v.event, evCount-evBefore), append(v.ref, refCount-refBefore)
			for s := range ev {
				for p, r := range ev[s].recs {
					isDense := tr.VMs[r.id].Runs.Offsets() == nil
					if isDense != (ev[s].blocks[p] != nil) {
						t.Fatalf("tick %d: vm %d dense %v but block %v", now, r.id, isDense, ev[s].blocks[p] != nil)
					}
					// The cursor a migration hands over stays on this tick.
					if next, ok := r.cur.Next(); isDense && ok && next != now+1 {
						t.Fatalf("tick %d: vm %d cursor's next run at %d, want %d", now, r.id, next, now+1)
					}
				}
				for i := range ev[s].demand {
					if ev[s].demand[i] != ref[s].demand[i] {
						t.Fatalf("tick %d shard %d server %d demand: event %v, reference %v", now, s, i, ev[s].demand[i], ref[s].demand[i])
					}
				}
			}
		}
		return v
	}
	allVisited := func(t *testing.T, v visits) {
		t.Helper()
		if !slices.Equal(v.event, v.ref) {
			t.Fatalf("visits per tick: event %v, reference %v", v.event, v.ref)
		}
	}
	noop := func(int, []*shardState, bool) {}

	t.Run("across-block-boundaries", func(t *testing.T) {
		// Three VMs arrive at trainUpTo and one mid-block, so their blocks
		// refill at different ticks; all live to the horizon.
		allVisited(t, run(t, []trace.VM{
			dense(0, 0, 0, horizon),
			dense(1, 0, 3, horizon),
			dense(2, 0, trainUpTo+5, horizon),
			dense(3, 0, 0, horizon),
		}, noop))
	})
	t.Run("series-ends-mid-block", func(t *testing.T) {
		// VM 0's last block holds 13 samples, VM 1's only block 27 of
		// its 32; both depart when their series end and VM 2, the last
		// record, moves into the freed position.
		allVisited(t, run(t, []trace.VM{
			dense(0, 0, 0, trainUpTo+denseBlockLen+13),
			dense(1, 0, trainUpTo+3, trainUpTo+30),
			dense(2, 0, 0, horizon),
		}, noop))
	})
	t.Run("departure-and-readmission-mid-block", func(t *testing.T) {
		// VM 0 departs mid-block and VM 2, the last record, swaps into its
		// position with a half-read block; later the server holding VM 1
		// crashes mid-block and VM 1 is re-admitted with an empty block.
		const departAt, crashAt = trainUpTo + 17, trainUpTo + denseBlockLen + 11
		v := run(t, []trace.VM{
			dense(0, 0, 0, departAt),
			dense(1, 0, 0, horizon),
			dense(2, 0, trainUpTo+2, horizon),
			dense(3, 0, 0, horizon),
		}, func(now int, states []*shardState, event bool) {
			st := states[0]
			switch now {
			case departAt:
				if !event {
					break
				}
				if last := len(st.recs) - 1; st.recs[last].id != 2 || st.blocks[last].n == 0 {
					t.Fatal("fixture wants VM 2 last, with a filled block, when VM 0 departs")
				}
			case crashAt:
				st.sh.Faults = []fault.Event{{Tick: now - trainUpTo, Server: int(st.recs[st.pos[1]].srv)}}
			case crashAt + 1:
				if st.sh.Stats.ReplacedVMs == 0 || st.pos[1] < 0 {
					t.Fatal("fixture wants VM 1 re-admitted after the crash")
				}
			}
		})
		allVisited(t, v)
	})
	t.Run("immigration-mid-block", func(t *testing.T) {
		// VM 2 replays on shard 1 for half a block, then migrates to
		// shard 0 carrying its cursor; the destination refills from it.
		const moveAfter = trainUpTo + 2*denseBlockLen + 9
		allVisited(t, run(t, []trace.VM{
			dense(0, 0, 0, horizon),
			dense(1, 0, 0, horizon),
			dense(2, 1, 0, horizon),
			dense(3, 1, 0, horizon),
		}, func(now int, states []*shardState, event bool) {
			if now != moveAfter+1 {
				return
			}
			src, dst := states[1], states[0]
			if b := src.blocks[src.pos[2]]; event && int(b.from)+int(b.n) <= now {
				t.Fatalf("fixture wants VM 2 to move with samples left in its block, got %d+%d at %d", b.from, b.n, now)
			}
			cur := src.recs[src.pos[2]].cur
			src.sh.Sched.Remove(2)
			src.removeTracked(2)
			dst.addImmigrated(migRequest{
				MigrationRequest: core.MigrationRequest{VMID: 2, Tick: moveAfter - trainUpTo},
				vm:               &states[0].tr.VMs[2],
				cur:              cur,
			}, int(dst.recs[dst.pos[0]].srv))
		}))
	})
	t.Run("dense-and-sparse-on-one-server", func(t *testing.T) {
		// The sparse VM is visited when placed and at its one run start;
		// the reference visits it every tick.
		const change = trainUpTo + denseBlockLen + 4
		v := run(t, []trace.VM{
			dense(0, 0, 0, horizon),
			sparse(1, 0, 0, horizon, change),
			dense(2, 0, 0, horizon),
		}, func(now int, states []*shardState, _ bool) {
			if now == trainUpTo+1 {
				st := states[0]
				if a, b, c := st.recs[0].srv, st.recs[1].srv, st.recs[2].srv; a != b || b != c {
					t.Fatalf("fixture wants the three VMs on one server, got %d, %d, %d", a, b, c)
				}
			}
		})
		for i := range v.event {
			want := v.ref[i] - 1
			if now := trainUpTo + i; now == trainUpTo || now == change {
				want = v.ref[i]
			}
			if v.event[i] != want {
				t.Fatalf("tick %d: event visits %d, want %d (reference %d)", trainUpTo+i, v.event[i], want, v.ref[i])
			}
		}
	})
}
