package fault

import (
	"reflect"
	"testing"

	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/timeseries"
)

const horizon = 7 * timeseries.SamplesPerDay

// events lists every shard's server events, shard by shard.
func events(s *Schedule) []Event {
	var out []Event
	for _, evs := range s.byShard {
		out = append(out, evs...)
	}
	return out
}

func compile(t *testing.T, faults []scenario.Fault, seed int64, shards []int) *Schedule {
	t.Helper()
	s, err := Compile(faults, seed, shards, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCompileDeterministic: the schedule is a pure function of
// (spec, seed, fleet shape, horizon) — compiling twice yields deep-equal
// schedules, and a different seed moves the chaos events.
func TestCompileDeterministic(t *testing.T) {
	faults := []scenario.Fault{
		{Kind: "crash", Day: 0.25, Cluster: 0, Server: 0, RecoverHours: 6},
		{Kind: "chaos", Day: 0.5, MTBFHours: 8, RecoverHours: 3, Cluster: -1, Server: -1},
	}
	shards := []int{4, 4, 4}
	a := compile(t, faults, 5150, shards)
	b := compile(t, faults, 5150, shards)
	if !reflect.DeepEqual(events(a), events(b)) {
		t.Fatalf("same inputs compiled to different schedules:\n%v\n%v", events(a), events(b))
	}
	if a.Crashes() == 0 {
		t.Fatal("chaos schedule compiled no crashes")
	}
	c := compile(t, faults, 5151, shards)
	if reflect.DeepEqual(events(a), events(c)) {
		t.Fatal("different seeds compiled identical chaos schedules")
	}
	// Each shard's view holds its own events in tick order.
	for i := range shards {
		evs := a.ForShard(i)
		for j, e := range evs {
			if e.Shard != i || (j > 0 && e.Tick < evs[j-1].Tick) {
				t.Fatalf("ForShard(%d)[%d] = %+v out of place in %v", i, j, e, evs)
			}
		}
	}
}

// TestCompilePinnedCrash: a fully pinned crash lands exactly where the
// spec says, with its recovery event RecoverHours later.
func TestCompilePinnedCrash(t *testing.T) {
	s := compile(t, []scenario.Fault{
		{Kind: "crash", Day: 1, Cluster: 1, Server: 2, RecoverHours: 6},
	}, 1, []int{4, 4})
	ev := events(s)
	if len(ev) != 2 {
		t.Fatalf("events = %v, want crash+recovery", ev)
	}
	wantDown := Event{Tick: timeseries.SamplesPerDay, Shard: 1, Server: 2}
	if ev[0] != wantDown {
		t.Fatalf("crash event %+v, want %+v", ev[0], wantDown)
	}
	wantUp := Event{Tick: timeseries.SamplesPerDay + 6*timeseries.SamplesPerHour, Shard: 1, Server: 2, Up: true}
	if ev[1] != wantUp {
		t.Fatalf("recovery event %+v, want %+v", ev[1], wantUp)
	}
	if s.Crashes() != 1 {
		t.Fatalf("crashes = %d, want 1", s.Crashes())
	}
}

// TestCompileOverlapDropped: a second crash aimed at a server that is
// still down is dropped, so the event stream never crashes a down
// server; with no recovery the server stays down for good.
func TestCompileOverlapDropped(t *testing.T) {
	s := compile(t, []scenario.Fault{
		{Kind: "crash", Day: 1, Cluster: 0, Server: 0, RecoverHours: 24},
		{Kind: "crash", Day: 1.5, Cluster: 0, Server: 0, RecoverHours: 24}, // still down
		{Kind: "crash", Day: 3, Cluster: 0, Server: 0},                     // back up, no recovery
		{Kind: "crash", Day: 4, Cluster: 0, Server: 0, RecoverHours: 1},    // down for good: dropped
	}, 1, []int{2})
	if s.Crashes() != 2 {
		t.Fatalf("crashes = %d, want 2 (overlaps dropped)", s.Crashes())
	}
	down := 0
	for _, e := range events(s) {
		if !e.Up {
			down++
		}
	}
	if down != 2 {
		t.Fatalf("down events = %d, want 2", down)
	}
}

// TestCompileModuloMapping: cluster/server indexes beyond the fleet wrap
// modulo its shape, mirroring how consumers map home clusters onto
// smaller fleets.
func TestCompileModuloMapping(t *testing.T) {
	s := compile(t, []scenario.Fault{
		{Kind: "crash", Day: 1, Cluster: 7, Server: 9},
	}, 1, []int{3, 3})
	ev := events(s)
	if len(ev) != 1 || ev[0].Shard != 1 || ev[0].Server != 0 {
		t.Fatalf("events = %v, want shard 7%%2=1 server 9%%3=0", ev)
	}
}

// TestCompileHorizonClipped: events at or past the horizon are dropped,
// and a recovery past the horizon never fires.
func TestCompileHorizonClipped(t *testing.T) {
	s := compile(t, []scenario.Fault{
		{Kind: "crash", Day: 8, Cluster: 0, Server: 0, RecoverHours: 1},    // past horizon
		{Kind: "crash", Day: 6.9, Cluster: 0, Server: 1, RecoverHours: 48}, // recovery past horizon
	}, 1, []int{2})
	if s.Crashes() != 1 {
		t.Fatalf("crashes = %d, want 1", s.Crashes())
	}
	for _, e := range events(s) {
		if e.Tick >= horizon {
			t.Fatalf("event past horizon survived: %+v", e)
		}
		if e.Up {
			t.Fatalf("recovery past horizon survived: %+v", e)
		}
	}
}

// TestScheduleFlagsAndLatency: train-fail, latency windows and
// handoff-crash points ride the schedule; nil and empty schedules are
// safe everywhere.
func TestScheduleFlagsAndLatency(t *testing.T) {
	s := compile(t, []scenario.Fault{
		{Kind: "train-fail"},
		{Kind: "latency", Day: 1, DurationHours: 2, DelayMs: 40, JitterMs: 10},
		{Kind: "handoff-crash", Phase: "after-release", Nth: 2},
	}, 1, []int{2})
	if !s.TrainFail() {
		t.Fatal("TrainFail not set")
	}
	if s.Empty() {
		t.Fatal("schedule with faults reports Empty")
	}
	start := timeseries.SamplesPerDay
	if _, ok := s.LatencyAt(start - 1); ok {
		t.Fatal("latency before window start")
	}
	w, ok := s.LatencyAt(start)
	if !ok || w.DelayMs != 40 || w.JitterMs != 10 {
		t.Fatalf("LatencyAt(start) = %+v, %v", w, ok)
	}
	if _, ok := s.LatencyAt(start + 2*timeseries.SamplesPerHour); ok {
		t.Fatal("latency at window end (exclusive)")
	}
	hc := s.HandoffCrashes()
	if len(hc) != 1 || hc[0] != (HandoffCrash{Phase: "after-release", Nth: 2}) {
		t.Fatalf("handoff crashes = %v", hc)
	}

	var nilSched *Schedule
	if !nilSched.Empty() || nilSched.Crashes() != 0 || nilSched.TrainFail() ||
		nilSched.ForShard(0) != nil {
		t.Fatal("nil schedule is not inert")
	}
	if _, ok := nilSched.LatencyAt(0); ok {
		t.Fatal("nil schedule has latency")
	}
}

// TestCompileUnknownKind rejects unknown fault kinds.
func TestCompileUnknownKind(t *testing.T) {
	if _, err := Compile([]scenario.Fault{{Kind: "meteor"}}, 1, []int{2}, horizon); err == nil {
		t.Fatal("unknown kind compiled")
	}
}

// TestInjectorCrashPoint: the Nth pass through a phase fires exactly
// once; other phases and other occurrence counts never fire.
func TestInjectorCrashPoint(t *testing.T) {
	in := InjectorForCrashes(HandoffCrash{Phase: "after-reserve", Nth: 2})
	if in.CrashPoint("after-reserve") {
		t.Fatal("fired on first pass, want second")
	}
	if in.CrashPoint("before-pick") {
		t.Fatal("fired on unarmed phase")
	}
	if !in.CrashPoint("after-reserve") {
		t.Fatal("did not fire on second pass")
	}
	if in.CrashPoint("after-reserve") {
		t.Fatal("fired again after firing once")
	}

	var nilIn *Injector
	if nilIn.CrashPoint("after-reserve") || nilIn.Delay(0) != 0 {
		t.Fatal("nil injector is not inert")
	}
	if NewInjector(nil).CrashPoint("after-reserve") {
		t.Fatal("empty injector fired")
	}
}

// TestInjectorDelay: delay is zero outside windows, at least the base
// inside, and bounded by base+jitter.
func TestInjectorDelay(t *testing.T) {
	s := compile(t, []scenario.Fault{
		{Kind: "latency", Day: 0, DurationHours: 1, DelayMs: 20, JitterMs: 5},
	}, 1, []int{2})
	in := NewInjector(s)
	if d := in.Delay(horizon - 1); d != 0 {
		t.Fatalf("delay outside window = %v", d)
	}
	for i := 0; i < 32; i++ {
		d := in.Delay(0)
		if d < 20e6 || d > 25e6 {
			t.Fatalf("delay %v outside [20ms, 25ms]", d)
		}
	}
}
