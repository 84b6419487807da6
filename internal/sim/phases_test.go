package sim

import (
	"reflect"
	"sort"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

// placementLedger is the part of a Result that arrival handling alone
// decides: the counts and every oversubscribed VM's outcome.
type placementLedger struct {
	Requested, Placed, Rejected, Oversubscribed int
	Outcomes                                    []VMOutcome
}

// replayPerArrival computes the placement ledger the way the tick loop
// did before the arrival and judging phases: one LongTerm.Predict +
// BuildCVM + Place per arrival, in event order, each outcome judged from
// the placed CVM at once, with crashes evicting and re-placing VMs in
// ascending id order after their tick's departures and arrivals.
func replayPerArrival(t *testing.T, tr *trace.Trace, fleet *cluster.Fleet, cfg Config) (placementLedger, int) {
	t.Helper()
	states, err := buildShards(tr, fleet, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var led placementLedger
	replaced := 0
	for _, st := range states {
		sh := st.sh
		faults, fi, ei := cfg.Faults.ForShard(sh.Index), 0, 0
		for tick := cfg.TrainUpTo; tick < tr.Horizon; tick++ {
			for ; ei < len(st.events) && st.events[ei].sample == tick; ei++ {
				ev := st.events[ei]
				if !ev.arrival {
					sh.Sched.Remove(ev.vm.ID)
					continue
				}
				led.Requested++
				pred, ok := cfg.Model.Predict(tr, ev.vm)
				cvm, err := scheduler.BuildCVM(cfg.Policy, ev.vm.ID, ev.vm.Alloc, pred, ok, cfg.Windows)
				if err != nil {
					t.Fatal(err)
				}
				if _, placed := sh.Sched.Place(cvm); !placed {
					led.Rejected++
					continue
				}
				led.Placed++
				if ok {
					led.Oversubscribed++
					led.Outcomes = append(led.Outcomes, outcome(ev.vm, cvm, cfg))
				}
			}
			for ; fi < len(faults) && faults[fi].Tick <= tick-cfg.TrainUpTo; fi++ {
				srv := faults[fi].Server
				if faults[fi].Up {
					sh.Sched.SetDown(srv, false)
					continue
				}
				if sh.Sched.Down(srv) {
					continue
				}
				evicted := sh.Sched.VMsOn(srv)
				sh.Sched.SetDown(srv, true)
				for _, id := range evicted {
					cvm, _ := sh.Sched.Remove(id)
					if _, ok := sh.Sched.Place(cvm); ok {
						replaced++
					}
				}
			}
		}
	}
	sort.Slice(led.Outcomes, func(i, j int) bool { return led.Outcomes[i].VMID < led.Outcomes[j].VMID })
	return led, replaced
}

// TestArrivalPhaseMatchesPerArrival pins the arrival and judging phases
// to the per-arrival path, under Coach and under Single, whose CVMs
// carry collapsed windows instead of the raw prediction. Three shards:
// one with exactly lookAhead arrivals, one with more than two spans'
// worth on too few servers (rejections), and one whose arrivals
// interleave with server crashes and the re-admissions they trigger. The
// reference replay and Run at Workers 1 and 4.
func TestArrivalPhaseMatchesPerArrival(t *testing.T) {
	sp, err := scenario.Preset("capacity")
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.GenerateScenario(sp.Scaled(800, 30))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigForPolicy(scheduler.PolicyCoach)
	cfg.TrainUpTo = src.Horizon / 2

	// Re-home the evaluated VMs: the first lookAhead to shard 0, the next
	// 2*lookAhead+22 to shard 1, the rest to shard 2.
	tr := *src
	tr.VMs = append([]trace.VM(nil), src.VMs...)
	evaluated := 0
	for i := range tr.VMs {
		if tr.VMs[i].End <= cfg.TrainUpTo {
			continue
		}
		switch {
		case evaluated < lookAhead:
			tr.VMs[i].Cluster = 0
		case evaluated < 3*lookAhead+22:
			tr.VMs[i].Cluster = 1
		default:
			tr.VMs[i].Cluster = 2
		}
		evaluated++
	}
	clusters := cluster.DefaultClusters(1)[:3]
	clusters[0].Servers, clusters[1].Servers, clusters[2].Servers = 4, 2, 6
	fleet := cluster.NewFleet(clusters)

	if cfg.Model, err = predict.TrainLongTerm(&tr, cfg.TrainUpTo, cfg.TrainConfig()); err != nil {
		t.Fatal(err)
	}
	cfg.Faults, err = fault.Compile([]scenario.Fault{
		{Kind: "crash", Day: 0.5, RecoverHours: 12, Cluster: 2, Server: 0},
		{Kind: "crash", Day: 1.25, RecoverHours: 6, Cluster: 2, Server: 1},
		{Kind: "crash", Day: 3, Cluster: 2, Server: 0},
	}, 1, []int{4, 2, 6}, tr.Horizon-cfg.TrainUpTo)
	if err != nil {
		t.Fatal(err)
	}

	states, err := buildShards(&tr, fleet, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make([]int, len(states))
	for i, st := range states {
		for _, ev := range st.events {
			if ev.arrival {
				arrivals[i]++
			}
		}
	}
	if arrivals[0] != lookAhead || arrivals[1] <= 2*lookAhead || arrivals[2] <= lookAhead {
		t.Fatalf("fixture arrivals per shard = %v, want %d, >%d, >%d", arrivals, lookAhead, 2*lookAhead, lookAhead)
	}

	// Single judges the same trained model's predictions after collapsing
	// their windows.
	for _, policy := range []scheduler.PolicyKind{scheduler.PolicyCoach, scheduler.PolicySingle} {
		cfg := cfg
		cfg.Policy = policy
		t.Run(policy.String(), func(t *testing.T) {
			want, replaced := replayPerArrival(t, &tr, fleet, cfg)
			if want.Rejected == 0 || want.Oversubscribed == 0 || replaced == 0 {
				t.Fatalf("vacuous fixture: %d rejected, %d oversubscribed, %d re-admitted", want.Rejected, want.Oversubscribed, replaced)
			}

			var first *Result
			for _, v := range []struct {
				name    string
				run     func(*trace.Trace, *cluster.Fleet, Config) (*Result, error)
				workers int
			}{
				{"reference", runReference, 1},
				{"workers=1", Run, 1},
				{"workers=4", Run, 4},
			} {
				c := cfg
				c.Workers = v.workers
				res, err := v.run(&tr, fleet, c)
				if err != nil {
					t.Fatal(err)
				}
				got := placementLedger{res.Requested, res.Placed, res.Rejected, res.Oversubscribed, res.Outcomes}
				if !reflect.DeepEqual(got, want) {
					got.Outcomes, want.Outcomes = nil, nil
					t.Fatalf("%s: ledger %+v, per-arrival replay %+v (or outcomes differ)", v.name, got, want)
				}
				if res.Faults == nil || res.Faults.ReplacedVMs != replaced {
					t.Fatalf("%s: faults %+v, per-arrival replay re-admitted %d", v.name, res.Faults, replaced)
				}
				if first == nil {
					first = res
				} else if !reflect.DeepEqual(res, first) {
					t.Fatalf("%s: Result differs from the reference", v.name)
				}
			}
		})
	}
}
