package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/serve"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

const samplesPerHour = timeseries.SamplesPerHour

// eventKind orders the requests due at one instant: a VM's admit comes
// before its report and its release.
type eventKind uint8

const (
	evTick eventKind = iota
	evAdmit
	evReport
	evRelease
)

// event is one scheduled request of the open loop.
type event struct {
	Due  time.Duration // offset from replay start
	Kind eventKind
	VM   int     // trace VM id (unused for a tick)
	Util float64 // memory utilization pushed by a report
}

// buildSchedule turns trace samples [lo, hi) into a wall-clock request
// stream compressed into wall: every VM arriving in the window is
// admitted at its arrival sample and released at its departure sample
// when that is inside the window too, pushes its trace memory
// utilization every reportEvery samples while it lives, and every sample
// starts with one data-plane tick. A sample's tick is due at the
// sample's start; its other requests are spread evenly across the
// sample, because the trace's 5-minute grid says nothing about order
// inside a sample and independent arrivals do not come in bursts. The
// schedule is a pure function of its arguments.
func buildSchedule(tr *trace.Trace, lo, hi int, wall time.Duration, reportEvery int) ([]event, error) {
	if lo < 0 || hi <= lo || hi > tr.Horizon || wall <= 0 || reportEvery < 1 {
		return nil, fmt.Errorf("replay: window [%d,%d) of a %d-sample trace, wall %s, report every %d", lo, hi, tr.Horizon, wall, reportEvery)
	}
	type slot struct {
		sample int
		kind   eventKind
		vm     int
		util   float64
	}
	var slots []slot
	for s := lo; s < hi; s++ {
		slots = append(slots, slot{sample: s, kind: evTick})
	}
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start < lo || vm.Start >= hi {
			continue
		}
		slots = append(slots, slot{sample: vm.Start, kind: evAdmit, vm: vm.ID})
		for s := vm.Start + reportEvery; s < vm.End && s < hi; s += reportEvery {
			slots = append(slots, slot{sample: s, kind: evReport, vm: vm.ID, util: vm.UtilAt(resources.Memory, s)})
		}
		if vm.End < hi {
			slots = append(slots, slot{sample: vm.End, kind: evRelease, vm: vm.ID})
		}
	}
	sort.Slice(slots, func(i, j int) bool {
		a, b := &slots[i], &slots[j]
		if a.sample != b.sample {
			return a.sample < b.sample
		}
		if a.kind == evTick || b.kind == evTick {
			return a.kind == evTick && b.kind != evTick
		}
		if a.vm != b.vm {
			return a.vm < b.vm
		}
		return a.kind < b.kind
	})

	period := float64(wall) / float64(hi-lo)
	evs := make([]event, len(slots))
	for i := 0; i < len(slots); {
		j := i
		for j < len(slots) && slots[j].sample == slots[i].sample {
			j++
		}
		// slots[i] is the sample's tick; the n others share the sample.
		base, n := float64(slots[i].sample-lo)*period, j-i-1
		for k := i; k < j; k++ {
			due := base
			if k > i {
				due += period * float64(k-i) / float64(n+1)
			}
			evs[k] = event{Due: time.Duration(due), Kind: slots[k].kind, VM: slots[k].vm, Util: slots[k].util}
		}
		i = j
	}
	return evs, nil
}

// replayWindow is the sample window a replay covers: the first days of
// the evaluation period, clipped to the trace.
func replayWindow(tr *trace.Trace, days int) (lo, hi int) {
	lo = tr.Horizon / 2
	hi = lo + days*timeseries.SamplesPerDay
	if hi > tr.Horizon {
		hi = tr.Horizon
	}
	return lo, hi
}

// replayResult is one open-loop repetition.
type replayResult struct {
	wall       time.Duration
	requests   int       // requests issued (ticks included)
	admitMs    []float64 // from the due time, unsorted
	tickMs     []float64 // TickDataPlane service time
	lagMs      []float64 // how late the generator issued each request
	admits     int
	placed     int
	rejected   int
	gone       int // releases and reports answered 409: the VM was lost to a crash or was mid-handoff
	failed     int
	failures   []string // what the first few failed requests looked like
	violations []string
	stats      serve.Stats
}

// timerSlack is how early the generator stops sleeping and starts
// polling the clock. The 2-core host's timers are about 1 ms coarse
// (time.Sleep(50µs) returns after 1.1 ms), so a generator that only
// slept would issue requests in 1 ms clumps, a millisecond late.
const timerSlack = 2 * time.Millisecond

// waitUntil returns at due: it sleeps while due is far, then yields in a
// loop, so request goroutines still get the processor it is polling on.
func waitUntil(due time.Time) {
	if d := time.Until(due); d > timerSlack {
		time.Sleep(d - timerSlack)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// runReplay walks evs against a fresh service. One generator goroutine
// waits until each request is due, takes one of inflight slots (the
// only place it can block) and hands the request to its own goroutine;
// ticks are dispatched the same way but never overlap each other, as
// coachd's single ticker never does. Latency runs from the due time, so
// a stall is charged to every request it delays.
func runReplay(svc *serve.Service, evs []event, inflight int, t *tracer) replayResult {
	var res replayResult
	maxID := 0
	for _, ev := range evs {
		if ev.VM > maxID {
			maxID = ev.VM
		}
	}
	// admitted[vm] is written by the VM's admit before it closes
	// decided[vm]; the VM's report and release read it after that close.
	admitted := make([]bool, maxID+1)
	decided := make([]chan struct{}, maxID+1)
	for _, ev := range evs {
		if ev.Kind == evAdmit {
			decided[ev.VM] = make(chan struct{})
		}
	}

	h, tb := svc.Handler(), t.buf()
	var mu sync.Mutex // guards res
	var tickMu sync.Mutex
	clients := sync.Pool{New: func() any { return newClient(h) }}
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	start := time.Now()
	for i := range evs {
		ev := evs[i]
		due := start.Add(ev.Due)
		waitUntil(due)
		sem <- struct{}{}
		issued := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			root := tb.id()
			name, failed, gone, failure := "", false, false, ""
			var t0, t1 time.Time
			switch ev.Kind {
			case evTick:
				name = "serve.TickDataPlane"
				tickMu.Lock()
				t0 = time.Now()
				err := svc.TickDataPlane()
				t1 = time.Now()
				tickMu.Unlock()
				if failed = err != nil; failed {
					failure = "TickDataPlane: " + err.Error()
				}
			case evAdmit:
				name = "serve.Handler/v1/admit"
				c := clients.Get().(*client)
				t0 = time.Now()
				out := c.admit(ev.VM)
				t1 = time.Now()
				if out == admitFailed {
					failure = c.describe("/v1/admit")
				}
				clients.Put(c)
				admitted[ev.VM] = out == admitPlaced
				close(decided[ev.VM])
				failed = out == admitFailed
				mu.Lock()
				res.admits++
				if out == admitPlaced {
					res.placed++
				} else if out == admitRejected {
					res.rejected++
				}
				res.admitMs = append(res.admitMs, ms(t1.Sub(due)))
				mu.Unlock()
			case evReport, evRelease:
				<-decided[ev.VM]
				if !admitted[ev.VM] {
					return // never admitted: nothing to report or release
				}
				c := clients.Get().(*client)
				t0 = time.Now()
				var code int
				if ev.Kind == evReport {
					name = "serve.Handler/v1/report"
					code = c.report(ev.VM, ev.Util)
				} else {
					name = "serve.Handler/v1/release"
					code = c.release(ev.VM)
				}
				t1 = time.Now()
				gone = code == http.StatusConflict
				if failed = code != http.StatusOK && !gone; failed {
					failure = c.describe(name)
				}
				clients.Put(c)
			}
			tb.add(tb.id(), root, name, root, t0, t1)
			tb.add(root, 0, "request", root, due, t1)
			mu.Lock()
			res.requests++
			res.lagMs = append(res.lagMs, ms(issued.Sub(due)))
			if ev.Kind == evTick {
				res.tickMs = append(res.tickMs, ms(t1.Sub(t0)))
			}
			if failed {
				if res.failed++; len(res.failures) < 3 {
					res.failures = append(res.failures, "replay: "+failure)
				}
			}
			if gone {
				res.gone++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)

	res.stats = svc.Stats()
	res.violations = checkQuiescent(res.stats, res.placed)
	return res
}

// checkQuiescent is the replay's ledger once nothing is in flight: no
// handoff is parked, and every admission is either still placed and
// attached, released, or lost to a crash.
func checkQuiescent(st serve.Stats, clientPlaced int) []string {
	var v []string
	dp := st.DataPlane
	if dp.PendingHandoffs != 0 {
		v = append(v, fmt.Sprintf("replay: %d handoffs still pending at quiescence", dp.PendingHandoffs))
	}
	admitted, released := admittedTotal(st), releasedTotal(st)
	if admitted != int64(clientPlaced) {
		v = append(v, fmt.Sprintf("replay: clients saw %d admissions, the service counted %d", clientPlaced, admitted))
	}
	if live := admitted - released - dp.LostVMs; live != int64(st.Placed) || st.Placed != dp.AttachedVMs {
		v = append(v, fmt.Sprintf("replay: admitted %d - released %d - lost %d = %d, placed %d, attached %d",
			admitted, released, dp.LostVMs, live, st.Placed, dp.AttachedVMs))
	}
	return v
}
