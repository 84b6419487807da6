package serve

import (
	"sort"
	"sync"
	"time"

	"github.com/coach-oss/coach/internal/core"
)

// This file is the serving half of the failure-domain engine
// (docs/DESIGN.md §13): compiled server crash/recover events apply on
// each data-plane tick, after the tick's admissions, through
// core.Shard.ApplyFaults — the clock and walker the simulator replays —
// and the cross-shard handoff gains a write-ahead intent log so a
// coordinator crash at any point of the pick/reserve/release/commit
// protocol leaves the VM recoverable — never lost, never double-placed.

// Handoff intent phases — the write-ahead record of how far a
// cross-shard handoff progressed. Each phase names the durable state
// the protocol reached, so recovery knows exactly what to undo or
// finish:
//
//	hoPending   nothing done; safe to restart (or settle home).
//	hoPicked    destination chosen, no capacity held yet.
//	hoReserved  capacity held at the destination, source still intact —
//	            recovery may roll back (cancel) or forward (release
//	            source and commit).
//	hoReleased  source released; the VM exists only as the reservation
//	            plus in-flight memory — recovery MUST roll forward.
//	hoCommitted memory attached at the destination; only the route
//	            update remains.
const (
	hoPending   = "pending"
	hoPicked    = "picked"
	hoReserved  = "reserved"
	hoReleased  = "released"
	hoCommitted = "committed"
)

// handoffIntent is one logged cross-shard handoff. Its mutex serializes
// the drivers (the tick loop, the recovery sweep, a racing Release);
// lock ordering is intent → shard, never the reverse.
type handoffIntent struct {
	mu        sync.Mutex
	req       core.MigrationRequest
	phase     string
	dstShard  int
	dstServer int
	// tracked carries the VM's utilization cursor across the shard move
	// once the source releases it.
	tracked *dpTracked
	done    bool
}

// newIntent logs a fresh handoff intent before any protocol step runs —
// the write-ahead discipline: the record exists before the actions it
// describes.
func (s *Service) newIntent(req core.MigrationRequest) *handoffIntent {
	in := &handoffIntent{req: req, phase: hoPending, dstShard: -1, dstServer: -1}
	s.intentMu.Lock()
	s.intents[req.VMID] = in
	s.intentMu.Unlock()
	return in
}

// intentFor returns the live intent for vmID (nil when none).
func (s *Service) intentFor(vmID int) *handoffIntent {
	s.intentMu.Lock()
	defer s.intentMu.Unlock()
	return s.intents[vmID]
}

// pendingHandoffs reports the intent-log depth.
func (s *Service) pendingHandoffs() int {
	s.intentMu.Lock()
	defer s.intentMu.Unlock()
	return len(s.intents)
}

// finishIntent retires a completed intent from the log. Callers hold
// in.mu; done guards drivers that already fetched the pointer.
func (s *Service) finishIntent(in *handoffIntent) {
	in.done = true
	s.intentMu.Lock()
	delete(s.intents, in.req.VMID)
	s.intentMu.Unlock()
}

// recoverHandoffs sweeps the intent log, driving every parked intent to
// completion — the crash-recovery pass a restarted coordinator would
// run. TickDataPlane calls it at the top of every tick; VM order keeps
// the sweep deterministic.
func (s *Service) recoverHandoffs() error {
	s.intentMu.Lock()
	ids := make([]int, 0, len(s.intents))
	for id := range s.intents {
		ids = append(ids, id)
	}
	s.intentMu.Unlock()
	sort.Ints(ids)
	for _, id := range ids {
		if in := s.intentFor(id); in != nil {
			if err := s.driveHandoff(in); err != nil {
				return err
			}
		}
	}
	return nil
}

// driveHandoff advances one handoff intent as far as it can go,
// idempotently: any driver (the tick loop, the recovery sweep, a
// Release spinning on the in-flight VM) may call it, from any phase,
// any number of times. Injected crash points (fault.HandoffCrash) park
// the intent mid-protocol by returning early — exactly what a real
// coordinator crash leaves behind — and the next driver resumes from
// the logged phase.
//
// The protocol never holds two shard locks at once:
//
//  1. Pick: poll every other shard (one lock at a time) for its best
//     unpressured best-fit server.
//  2. Reserve: place the CoachVM on the chosen destination — capacity is
//     now held at the destination while the source still holds its own,
//     so a concurrent admission cannot squeeze the VM out mid-flight.
//  3. Release: verify the VM still lives on its source server as the
//     exact CoachVM being migrated (a concurrent Release may have
//     dropped it, or a server crash re-homed it with fresh memory —
//     either way the reservation is cancelled and the in-flight memory
//     discarded), then remove the source bookkeeping.
//  4. Commit: attach the memory at the destination, pre-copied pages
//     arriving resident, and update the route so Release/Report find
//     the VM in its new shard.
//
// Requests no shard can absorb settle back in their home shard through
// the engine's same-shard fallback. Once the source is released (phase
// hoReleased) the protocol only rolls forward: the reservation plus the
// intent record are the VM's sole existence, and completing the commit
// is the only path that neither loses nor duplicates it.
func (s *Service) driveHandoff(in *handoffIntent) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.done {
		return nil
	}
	req := in.req
	src := s.shards[req.SrcShard]

	if in.phase == hoPending {
		if s.injector.CrashPoint("before-pick") {
			return nil
		}
		bestShard, bestServer := core.BestInbound(s.cores, req, func(j int, pick func()) {
			s.shards[j].mu.Lock()
			pick()
			s.shards[j].mu.Unlock()
		})
		if bestShard < 0 {
			err := s.settleHome(src, req)
			s.finishIntent(in)
			return err
		}
		in.dstShard, in.dstServer = bestShard, bestServer
		in.phase = hoPicked
		if s.injector.CrashPoint("after-pick") {
			return nil
		}
	}

	if in.phase == hoPicked {
		if s.injector.CrashPoint("before-reserve") {
			return nil
		}
		dst := s.shards[in.dstShard]
		dst.mu.Lock()
		err := dst.Eng.Reserve(req, in.dstServer)
		dst.mu.Unlock()
		if err != nil {
			// The candidate filled up (or went down) between pick and
			// reserve; settle at home rather than retrying a moving target.
			err := s.settleHome(src, req)
			s.finishIntent(in)
			return err
		}
		in.phase = hoReserved
		if s.injector.CrashPoint("after-reserve") {
			return nil
		}
	}

	if in.phase == hoReserved {
		if s.injector.CrashPoint("before-release") {
			return nil
		}
		// A source that no longer holds the VM (released, or re-homed by
		// a crash) leaves the in-flight copy without an owner: drop it.
		src.mu.Lock()
		if !src.holds(req) {
			src.mu.Unlock()
			dst := s.shards[in.dstShard]
			dst.mu.Lock()
			dst.Release(req.VMID)
			dst.mu.Unlock()
			s.finishIntent(in)
			return nil
		}
		src.Release(req.VMID)
		in.tracked = src.dpVMs[req.VMID]
		src.dpVMs[req.VMID] = nil
		src.mu.Unlock()
		in.phase = hoReleased
		if s.injector.CrashPoint("after-release") {
			return nil
		}
	}

	if in.phase == hoReleased {
		if s.injector.CrashPoint("before-commit") {
			return nil
		}
		dst := s.shards[in.dstShard]
		dst.mu.Lock()
		plan, err := dst.Eng.CommitInbound(req, in.dstServer)
		if err == nil {
			// The memory arrived with the working set it left with; the
			// next tick resumes the carried cursor.
			tracked := in.tracked
			if tracked == nil {
				tracked = &dpTracked{vm: s.VM(req.VMID)}
			}
			dst.dpVMs[req.VMID] = tracked
		}
		dst.mu.Unlock()
		if err != nil {
			// Leave the intent parked: the next sweep retries the commit.
			// Rolling back here would lose the VM — the source is gone.
			return err
		}
		// The handoff counts at its source, as in the simulator's exchange.
		src.mu.Lock()
		src.Count(plan)
		src.mu.Unlock()
		in.phase = hoCommitted
		if s.injector.CrashPoint("after-commit") {
			return nil
		}
	}

	if in.phase == hoCommitted {
		s.setRoute(req.VMID, in.dstShard)
		s.finishIntent(in)
	}
	return nil
}

// settleHome lands a declined cross-shard request back in its home shard
// (least-pressured feasible server, else a warm re-land on the source),
// unless the VM was released — or crash-evicted and re-homed — mid-flight.
func (s *Service) settleHome(src *fleetShard, req core.MigrationRequest) error {
	src.mu.Lock()
	defer src.mu.Unlock()
	if !src.holds(req) {
		return nil // released (or re-admitted elsewhere) mid-flight
	}
	_, err := src.Settle(req)
	return err
}

// holds reports whether the shard still holds the exact CoachVM a handoff
// is moving on its source server. Pointer identity guards the ABA race
// where a concurrent Release and re-Admit put a fresh CVM with the same
// id back mid-flight; the server check guards a crash that evicted and
// re-homed the VM with freshly attached memory.
func (sh *fleetShard) holds(req core.MigrationRequest) bool {
	return sh.Sched != nil && sh.Sched.CVM(req.VMID) == req.CVM &&
		sh.Sched.ServerOf(req.VMID) == req.SrcServer
}

// applyFaults applies every shard's fault events due at or before tick
// through core.Shard.ApplyFaults, under the shard's lock. TickDataPlane
// calls it once per tick, after the recovery sweep, so parked handoffs
// complete against the fleet state they were logged under before servers
// fail beneath them. A re-admitted VM keeps its utilization cursor; a
// lost one leaves the fleet.
func (s *Service) applyFaults(tick int) error {
	for _, sh := range s.shards {
		sh.mu.Lock()
		evicted, err := sh.ApplyFaults(tick)
		var lost []int
		for _, ev := range evicted {
			if ev.Server < 0 {
				sh.dpVMs[ev.VMID] = nil
				lost = append(lost, ev.VMID)
			}
		}
		sh.mu.Unlock()
		// Clearing a lost VM's route (outside the shard lock — routeMu is
		// never nested inside one) makes a later Release report it gone.
		for _, id := range lost {
			s.setRoute(id, -1)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Ready reports readiness for /readyz: the service can serve
// model-backed admissions. It is not-ready while shutting down, while
// degraded, and before the (possibly lazy) training run has produced a
// model — so a rollout gate waits for the cold start instead of routing
// traffic into it.
func (s *Service) Ready() (bool, string) {
	if s.isClosed() {
		return false, "shutting down"
	}
	if s.degraded.Load() {
		return false, "degraded: prediction model unavailable"
	}
	if s.model.Load() == nil {
		return false, "model training"
	}
	return true, ""
}

// InjectedDelay returns the fault schedule's request latency for the
// current data-plane tick (0 when no latency window is active). The
// HTTP handlers sleep it before serving, simulating a fleet-wide slow
// patch without touching the decision logic.
func (s *Service) InjectedDelay() time.Duration {
	return s.injector.Delay(int(s.dpTicks.Load()))
}
