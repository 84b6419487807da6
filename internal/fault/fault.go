// Package fault compiles a scenario's declarative faults: section into
// a deterministic, seed-driven fault schedule and provides the runtime
// hooks that inject it. One compiled Schedule drives both traffic
// consumers identically: each core.Shard walks its slice of the server
// crash/recover events (ForShard) on one clock, after a tick's
// departures and arrivals — the simulator's ticks and a live coachd's
// data-plane ticks alike — and coachd applies the serving-only faults
// (injected request latency, handoff crash points) through an Injector.
// Ticks count from the start of the evaluation period, matching
// scenario.Fault.Day. See docs/DESIGN.md §13.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/timeseries"
)

// Event is one server state change: at Tick (evaluation ticks), the
// server goes down (Up=false: its memory is lost and its VMs must be
// re-admitted elsewhere) or comes back empty (Up=true).
type Event struct {
	Tick   int
	Shard  int
	Server int
	Up     bool
}

// Window is one injected-latency interval over [Start, End) ticks.
type Window struct {
	Start, End int
	DelayMs    float64
	JitterMs   float64
}

// HandoffCrash kills the cross-shard handoff coordinator the Nth time
// (1-based) it passes the named crash point; scenario.HandoffPhases
// lists the points.
type HandoffCrash struct {
	Phase string
	Nth   int
}

// Schedule is a compiled fault plan. The zero value and the nil pointer
// are both valid empty schedules; every method is nil-safe so callers
// can thread an optional *Schedule without guarding.
type Schedule struct {
	byShard   [][]Event // per shard, sorted by (Tick, Server), recoveries first
	trainFail bool
	latency   []Window
	handoffs  []HandoffCrash
	crashes   int
}

// Compile expands a fault list into a schedule for a concrete fleet:
// shardServers[i] is the server count of shard i, horizonTicks the
// evaluation length (events at or past it are dropped; a recovery
// scheduled past it simply never fires). Seed drives every random
// choice — chaos crash times and seed-picked victims — through the same
// math/rand mixing the trace generator uses, so the same (spec, fleet)
// pair always compiles to the same schedule. A fault cluster outside
// the fleet's shard range wraps modulo the shard count, mirroring how
// the consumers map home clusters onto smaller fleets.
func Compile(faults []scenario.Fault, seed int64, shardServers []int, horizonTicks int) (*Schedule, error) {
	s := &Schedule{}
	if len(faults) == 0 {
		return s, nil
	}
	if len(shardServers) == 0 {
		return nil, fmt.Errorf("fault: no shards to compile against")
	}
	total := 0
	for _, n := range shardServers {
		if n < 1 {
			return nil, fmt.Errorf("fault: empty shard")
		}
		total += n
	}
	rng := rand.New(rand.NewSource(seed ^ int64(0x5ca1ab1e0ddba11)))

	// One candidate crash per victim pick; overlaps (a victim still down)
	// are dropped in time order below, so the surviving events never
	// crash a down server or recover an up one.
	type cand struct {
		tick, shard, server, recover, seq int
	}
	var cands []cand
	seq := 0
	pick := func(f *scenario.Fault) (int, int) {
		shard, server := f.Cluster, f.Server
		if shard < 0 {
			shard = rng.Intn(len(shardServers))
		} else {
			shard %= len(shardServers)
		}
		if server < 0 {
			server = rng.Intn(shardServers[shard])
		} else if server >= shardServers[shard] {
			server %= shardServers[shard]
		}
		return shard, server
	}
	for i := range faults {
		f := &faults[i]
		start := int(f.Day * timeseries.SamplesPerDay)
		recover := hoursToTicks(f.RecoverHours)
		switch f.Kind {
		case "crash":
			shard, server := pick(f)
			cands = append(cands, cand{start, shard, server, recover, seq})
			seq++
		case "chaos":
			end := horizonTicks
			if f.DurationHours > 0 {
				if e := start + hoursToTicks(f.DurationHours); e < end {
					end = e
				}
			}
			mtbf := f.MTBFHours * timeseries.SamplesPerHour
			for t := start + expGap(rng, mtbf); t < end; t += expGap(rng, mtbf) {
				shard, server := pick(f)
				cands = append(cands, cand{t, shard, server, recover, seq})
				seq++
			}
		case "train-fail":
			s.trainFail = true
		case "latency":
			end := horizonTicks
			if f.DurationHours > 0 {
				end = start + hoursToTicks(f.DurationHours)
			}
			s.latency = append(s.latency, Window{Start: start, End: end,
				DelayMs: f.DelayMs, JitterMs: f.JitterMs})
		case "handoff-crash":
			nth := f.Nth
			if nth < 1 {
				nth = 1
			}
			s.handoffs = append(s.handoffs, HandoffCrash{Phase: f.Phase, Nth: nth})
		default:
			return nil, fmt.Errorf("fault: unknown kind %q", f.Kind)
		}
	}

	sort.Slice(cands, func(i, j int) bool {
		if cands[i].tick != cands[j].tick {
			return cands[i].tick < cands[j].tick
		}
		return cands[i].seq < cands[j].seq
	})
	downUntil := map[[2]int]int{} // (shard, server) -> first tick it is up again
	s.byShard = make([][]Event, len(shardServers))
	for _, c := range cands {
		if c.tick < 0 || c.tick >= horizonTicks {
			continue
		}
		key := [2]int{c.shard, c.server}
		if until, down := downUntil[key]; down && c.tick < until {
			continue
		}
		evs := append(s.byShard[c.shard], Event{Tick: c.tick, Shard: c.shard, Server: c.server})
		s.crashes++
		if up := c.tick + c.recover; c.recover > 0 && up < horizonTicks {
			downUntil[key] = up
			evs = append(evs, Event{Tick: up, Shard: c.shard, Server: c.server, Up: true})
		} else {
			// No recovery, or recovery past the horizon: down for good.
			downUntil[key] = horizonTicks
		}
		s.byShard[c.shard] = evs
	}
	for _, evs := range s.byShard {
		sort.Slice(evs, func(i, j int) bool {
			a, b := evs[i], evs[j]
			if a.Tick != b.Tick {
				return a.Tick < b.Tick
			}
			if a.Server != b.Server {
				return a.Server < b.Server
			}
			return a.Up && !b.Up // recover before a same-tick re-crash
		})
	}
	return s, nil
}

// hoursToTicks converts fault hours to whole evaluation ticks, never
// rounding a positive duration down to zero (a crashed server is down
// for at least one tick).
func hoursToTicks(hours float64) int {
	if hours <= 0 {
		return 0
	}
	t := int(hours * timeseries.SamplesPerHour)
	if t < 1 {
		t = 1
	}
	return t
}

// expGap draws an exponential inter-crash gap with the given mean in
// ticks, at least one tick.
func expGap(rng *rand.Rand, meanTicks float64) int {
	g := int(rng.ExpFloat64()*meanTicks + 0.5)
	if g < 1 {
		g = 1
	}
	return g
}

// Empty reports whether the schedule injects nothing at all. Every
// recovery follows a crash, so no crash means no server event.
func (s *Schedule) Empty() bool {
	return s == nil || (s.crashes == 0 && !s.trainFail &&
		len(s.latency) == 0 && len(s.handoffs) == 0)
}

// ForShard returns shard i's server events in tick order: each
// core.Shard walks its own, so fault application needs no cross-shard
// coordination.
func (s *Schedule) ForShard(i int) []Event {
	if s == nil || i < 0 || i >= len(s.byShard) {
		return nil
	}
	return s.byShard[i]
}

// Crashes returns the number of compiled crash events.
func (s *Schedule) Crashes() int {
	if s == nil {
		return 0
	}
	return s.crashes
}

// TrainFail reports whether model training is scheduled to fail.
func (s *Schedule) TrainFail() bool { return s != nil && s.trainFail }

// HandoffCrashes returns the configured handoff crash points.
func (s *Schedule) HandoffCrashes() []HandoffCrash {
	if s == nil {
		return nil
	}
	return s.handoffs
}

// LatencyAt returns the latency window covering tick, if any.
func (s *Schedule) LatencyAt(tick int) (Window, bool) {
	if s != nil {
		for _, w := range s.latency {
			if tick >= w.Start && tick < w.End {
				return w, true
			}
		}
	}
	return Window{}, false
}

// Injector is the serving-side fault hook: handoff crash points fire by
// occurrence count and injected latency draws per-request jitter. All
// methods are safe for concurrent use and nil-safe, so the serving path
// can call them unconditionally.
type Injector struct {
	mu      sync.Mutex
	counts  map[string]int
	crashes []HandoffCrash
	sched   *Schedule
	rng     *rand.Rand
}

// NewInjector builds an injector over a compiled schedule. Returns a
// usable (never firing) injector for an empty schedule.
func NewInjector(s *Schedule) *Injector {
	return &Injector{
		counts:  make(map[string]int),
		crashes: s.HandoffCrashes(),
		sched:   s,
		rng:     rand.New(rand.NewSource(0x7ea2e57)),
	}
}

// InjectorForCrashes builds an injector that fires only the given
// handoff crash points — the exhaustive crash-point tests use it to arm
// one point at a time without compiling a spec.
func InjectorForCrashes(crashes ...HandoffCrash) *Injector {
	in := NewInjector(nil)
	for _, c := range crashes {
		if c.Nth < 1 {
			c.Nth = 1
		}
		in.crashes = append(in.crashes, c)
	}
	return in
}

// CrashPoint counts one pass through the named crash point and reports
// whether the coordinator dies here: true exactly when some configured
// HandoffCrash matches the phase on this occurrence. A fired point does
// not fire again on later passes, so the recovery sweep can re-drive
// the interrupted handoff through the same point.
func (in *Injector) CrashPoint(phase string) bool {
	if in == nil || len(in.crashes) == 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts[phase]++
	n := in.counts[phase]
	for _, c := range in.crashes {
		if c.Phase == phase && c.Nth == n {
			return true
		}
	}
	return false
}

// Delay returns the injected latency for a request arriving at the
// given evaluation tick: the covering window's base delay plus uniform
// jitter. Zero outside latency windows.
func (in *Injector) Delay(tick int) time.Duration {
	if in == nil {
		return 0
	}
	w, ok := in.sched.LatencyAt(tick)
	if !ok {
		return 0
	}
	ms := w.DelayMs
	if w.JitterMs > 0 {
		in.mu.Lock()
		ms += in.rng.Float64() * w.JitterMs
		in.mu.Unlock()
	}
	return time.Duration(ms * float64(time.Millisecond))
}
