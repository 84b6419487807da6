package sim

// This file is the simulator half of the failure-domain engine
// (docs/DESIGN.md §13): compiled fault events apply at the top of each
// shard's evaluation tick, before that tick's departures and arrivals,
// through core.Shard's Crash and Recover — the same operations serve's
// data-plane tick runs. All processing is per-shard and in deterministic
// order (events pre-sorted, evictions in ascending VM id), so faulted
// Results stay byte-identical for any worker count — the
// golden-equivalence tests pin this via the chaos preset.

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

// applyFaults processes the shard's fault events due at trace tick t
// (Run pre-sorts them by tick, so a cursor walk suffices) and folds each
// crash's evictions into the replay accounting: a re-admitted VM gets a
// fresh record carrying its change-point cursor (this tick's delta pass
// folds its demand in through its slot) and one downtime tick; a lost VM leaves
// the replay, its remaining lifetime attributed as downtime.
func (st *shardState) applyFaults(t int) error {
	evTick := t - st.cfg.TrainUpTo
	for st.fi < len(st.fEvents) && st.fEvents[st.fi].Tick <= evTick {
		e := st.fEvents[st.fi]
		st.fi++
		if e.Up {
			st.sh.Recover(e.Server)
			continue
		}
		evicted, err := st.sh.Crash(e.Server)
		for _, ev := range evicted {
			rec := st.recs[st.pos[ev.VMID]]
			st.removeTracked(ev.VMID) // memory already gone with the crash
			if ev.Server < 0 {
				st.sr.faults.DowntimeTicks += min(rec.vm.End, st.tr.Horizon) - t
				continue
			}
			st.track(placedRec{
				vm: rec.vm, srv: ev.Server,
				changes: rec.changes, nextCh: rec.nextCh,
			})
			st.slots = append(st.slots, ev.VMID)
			st.sr.faults.DowntimeTicks++
		}
		if err != nil {
			return err
		}
	}
	return nil
}
