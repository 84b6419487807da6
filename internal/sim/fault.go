package sim

import (
	"github.com/coach-oss/coach/internal/core"
)

// This file is the simulator half of the failure-domain engine
// (docs/DESIGN.md §13): compiled fault events apply at the top of each
// shard's evaluation tick, before that tick's departures and arrivals.
// A crash evicts the server's memory state wholesale and turns every
// hosted VM into a pending re-admission through the same pressure-aware
// placement path serve's crash handler uses
// (core.MigrationEngine.RecoveryTarget); a recovery returns the server to
// service empty. All processing is
// per-shard and in deterministic order (events pre-sorted, evictions in
// ascending VM id), so faulted Results stay byte-identical for any
// worker count and for both replay engines — the golden-equivalence
// tests pin this via the chaos preset.

// FaultResult aggregates the failure-domain engine's outcomes across
// shards. It is map-free so gob encodings stay deterministic.
type FaultResult struct {
	// Crashes and Recoveries count applied server fault events.
	Crashes    int
	Recoveries int
	// EvictedVMs counts VMs displaced by crashes; each one was either
	// re-admitted elsewhere (ReplacedVMs) or had no feasible home left
	// and dropped out of the replay (LostVMs).
	EvictedVMs  int
	ReplacedVMs int
	LostVMs     int
	// DowntimeTicks attributes unavailability per displaced VM in
	// 5-minute ticks: one tick per re-admission, the remaining scheduled
	// lifetime for a lost VM.
	DowntimeTicks int
}

// merge folds o into f (shard order).
func (f *FaultResult) merge(o FaultResult) {
	f.Crashes += o.Crashes
	f.Recoveries += o.Recoveries
	f.EvictedVMs += o.EvictedVMs
	f.ReplacedVMs += o.ReplacedVMs
	f.LostVMs += o.LostVMs
	f.DowntimeTicks += o.DowntimeTicks
}

// applyFaults processes the shard's fault events due at trace tick t.
// Run pre-sorts events by tick, so a cursor walk suffices.
func (st *shardState) applyFaults(t int) error {
	evTick := t - st.cfg.TrainUpTo
	for st.fi < len(st.fEvents) && st.fEvents[st.fi].Tick <= evTick {
		e := st.fEvents[st.fi]
		st.fi++
		if e.Up {
			st.recoverServer(e.Server)
		} else if err := st.crashServer(t, e.Server); err != nil {
			return err
		}
	}
	return nil
}

// crashServer fails one shard server at trace tick t: its data-plane
// state is lost, the scheduler marks it down, and every hosted VM is
// evicted and re-admitted through the recovery placement path — or
// lost, its remaining lifetime attributed as downtime, when no feasible
// server remains in the shard.
func (st *shardState) crashServer(t, srv int) error {
	if st.sh.sched == nil || srv < 0 || srv >= len(st.servers) || st.sh.sched.Down(srv) {
		return nil
	}
	st.sr.faults.Crashes++
	evicted := st.sh.sched.VMsOn(srv)
	if st.sdp != nil && st.sdp.dp != nil {
		st.sdp.dp.CrashServer(srv)
	}
	st.sh.sched.SetDown(srv, true)
	for _, id := range evicted {
		cvm := st.sh.sched.CVM(id)
		p := st.pos[id]
		if p < 0 || cvm == nil {
			// Scheduler-only residue (e.g. a reservation whose replay
			// accounting lives elsewhere): drop the bookkeeping and move on.
			st.sh.sched.Remove(id)
			st.removeTracked(id, false)
			continue
		}
		rec := st.recs[p]
		st.sh.sched.Remove(id)
		st.removeTracked(id, false) // memory already gone with the crash
		st.sr.faults.EvictedVMs++

		target := -1
		if st.sdp != nil && st.sdp.dp != nil {
			if s2 := st.sdp.eng.RecoveryTarget(cvm); s2 >= 0 {
				if err := st.sh.sched.PlaceAt(cvm, s2); err != nil {
					return err
				}
				target = s2
			}
		} else if s2, ok := st.sh.sched.Place(cvm); ok {
			target = s2
		}
		if target < 0 {
			st.sr.faults.LostVMs++
			end := rec.vm.End
			if end > st.tr.Horizon {
				end = st.tr.Horizon
			}
			st.sr.faults.DowntimeTicks += end - t
			continue
		}

		// Re-admitted: mirror addImmigrated's bookkeeping — a fresh
		// unsynced record carrying the change-point cursor, folded into
		// the demand totals by this tick's delta pass.
		if st.vmCount[target] == 0 {
			st.used++
		}
		st.vmCount[target]++
		st.pos[id] = int32(len(st.recs))
		st.recs = append(st.recs, placedRec{
			vm: rec.vm, srv: target,
			changes: rec.changes, nextCh: rec.nextCh,
		})
		if st.queue != nil {
			st.slots = append(st.slots, id)
			st.touchServer(target)
		}
		if st.sdp != nil && st.sdp.dp != nil {
			sizeGB, paGB := core.MemoryProfile(cvm)
			if err := st.sdp.dp.Attach(target, id, sizeGB, paGB); err != nil {
				return err
			}
		}
		st.sr.faults.ReplacedVMs++
		st.sr.faults.DowntimeTicks++
	}
	return nil
}

// recoverServer returns a crashed server to service, empty: the
// scheduler accepts placements on it again.
func (st *shardState) recoverServer(srv int) {
	if st.sh.sched == nil || srv < 0 || srv >= len(st.servers) || !st.sh.sched.Down(srv) {
		return
	}
	st.sh.sched.SetDown(srv, false)
	st.sr.faults.Recoveries++
}
