package memsim

import "fmt"

// This file models the platform-management compatibility features of
// paper §3.2: direct device access to oversubscribed memory via guest
// enlightenments (DMA-pinned ranges), and VM-preserving host updates that
// persist the VA-backing structures across a host OS reboot.

// Pin reserves gb of the VM's VA region for device I/O (DMA). Most devices
// lack ATS/PRI, so the guest enlightenment exchanges I/O memory ranges at
// boot and the host keeps them resident and immovable: pinned pages always
// hold pool frames and are never trimmed, stolen or paged.
//
// Pin must be called before the working set grows into the region (at VM
// boot, per the paper); it fails when the VA region cannot accommodate the
// pin alongside the current populations.
func (v *VMMem) Pin(gb float64) error {
	if gb < 0 {
		return fmt.Errorf("memsim: vm %d negative pin %.2fGB", v.ID, gb)
	}
	inUse := v.needResident + v.needStore + v.needFresh + v.coldResident + v.coldStore
	if v.pinned+gb+inUse > v.VAGB()+1e-9 {
		return fmt.Errorf("memsim: vm %d pin %.2fGB exceeds free VA (%.2fGB of %.2fGB in use)",
			v.ID, gb, inUse+v.pinned, v.VAGB())
	}
	v.pinned += gb
	v.pinnedMissing += gb
	return nil
}

// PinnedGB returns the VM's total DMA-pinned VA memory.
func (v *VMMem) PinnedGB() float64 { return v.pinned }

// pinnedDemand returns pinned memory not yet backed by pool frames
// (pinned ranges are faulted in eagerly right after Pin).
func (v *VMMem) pinnedDemand() float64 { return v.pinnedMissing }

// admitPinned backs up to gb of pinned memory with pool frames.
func (v *VMMem) admitPinned(gb float64) float64 {
	taken := min2(gb, v.pinnedMissing)
	v.pinnedMissing -= taken
	return taken
}

// HostUpdateReport describes one VM-preserving host update.
type HostUpdateReport struct {
	// DowntimeS is the VM pause duration: a fixed reboot overhead plus
	// the cost of persisting the VA-backing metadata (§3.2: "we incur
	// this necessary complexity to persist these complex structures with
	// negligible overhead").
	DowntimeS float64
	// PersistedGB is the VA-backed memory whose mapping structures were
	// persisted across the update.
	PersistedGB float64
	// CancelledMigrations counts in-flight live migrations aborted by
	// the update (they restart from scratch afterwards).
	CancelledMigrations int
}

// hostUpdateFixedS is the VM-pause overhead of the kernel soft-reboot.
const hostUpdateFixedS = 2.0

// hostUpdatePerGBS is the metadata persistence cost per GB of VA-backed
// memory (page-table and backing-store index serialization).
const hostUpdatePerGBS = 0.02

// HostUpdate performs a VM-preserving host update (§3.2): VMs pause, the
// host OS reboots, and both the PA mappings and the VA-backing structures
// are persisted and restored. All page populations — resident, cold,
// store, pinned — survive unchanged; in-flight trims and extends complete
// logically (their state is part of the persisted structures) while live
// migrations are cancelled.
func (s *Server) HostUpdate() HostUpdateReport {
	rep := HostUpdateReport{
		DowntimeS:           hostUpdateFixedS,
		CancelledMigrations: len(s.migrations),
	}
	s.migrations = nil
	for _, vm := range s.members {
		rep.PersistedGB += vm.ResidentVA()
	}
	rep.DowntimeS += rep.PersistedGB * hostUpdatePerGBS
	s.now += rep.DowntimeS
	return rep
}
