package memsim

import "fmt"

// VMMem is the memory state of one CoachVM on the simulated server.
//
// The VM's guest-physical space is SizeGB; the hypervisor backs PAGB of it
// with guaranteed physical memory and exposes the remaining VAGB as a
// zNUMA node whose pages are materialized on demand from the server's
// oversubscribed pool (§3.2).
//
// VA page populations (all in GB, all >= 0):
//
//	needResident — pages inside the current working set, resident.
//	needStore    — pages inside the working set, currently in the
//	               backing store (each access faults).
//	needFresh    — pages inside the working set never yet materialized
//	               (zero-fill on first touch; still needs pool frames).
//	coldResident — resident pages outside the working set (trimmable).
//	coldStore    — trimmed pages outside the working set.
type VMMem struct {
	ID     int
	SizeGB float64
	PAGB   float64

	// HotFrac is the fraction of accesses that go to the hot subset of
	// the working set; HotSize is that subset's share of the working set.
	// zNUMA funneling places the hot subset in PA first (§3.2).
	HotFrac float64
	HotSize float64

	wss float64 // current working set in GB (set by the workload)

	needResident float64
	needStore    float64
	needFresh    float64
	coldResident float64
	coldStore    float64
}

// NewVMMem creates the memory state for a VM with the given total size and
// guaranteed (PA) portion. Hot-set parameters default to 70% of accesses
// hitting 30% of the working set.
func NewVMMem(id int, sizeGB, paGB float64) (*VMMem, error) {
	if sizeGB <= 0 {
		return nil, fmt.Errorf("memsim: vm %d size %.2fGB <= 0", id, sizeGB)
	}
	if paGB < 0 || paGB > sizeGB {
		return nil, fmt.Errorf("memsim: vm %d PA %.2fGB outside [0,%.2f]", id, paGB, sizeGB)
	}
	return &VMMem{ID: id, SizeGB: sizeGB, PAGB: paGB, HotFrac: 0.7, HotSize: 0.3}, nil
}

// VAGB returns the size of the oversubscribed (VA) region.
func (v *VMMem) VAGB() float64 { return v.SizeGB - v.PAGB }

// WSS returns the current working-set size.
func (v *VMMem) WSS() float64 { return v.wss }

// ResidentVA returns the VA GB currently holding pool frames.
func (v *VMMem) ResidentVA() float64 { return v.needResident + v.coldResident }

// Trimmable returns the cold resident GB a trim operation can reclaim.
func (v *VMMem) Trimmable() float64 { return v.coldResident }

// Missing returns the working-set GB not yet resident (faults pending).
func (v *VMMem) Missing() float64 { return v.needStore + v.needFresh }

// vaNeed returns the working-set spillover into the VA region: the pages
// zNUMA could not funnel into the guaranteed portion.
func (v *VMMem) vaNeed() float64 {
	n := v.wss - v.PAGB
	if n < 0 {
		return 0
	}
	if avail := v.VAGB(); n > avail {
		n = avail
	}
	return n
}

// SetWSS moves the working set to w GB (clamped to the VM size) and
// reclassifies VA page populations:
//
//   - Growth reuses cold resident pages first (no fault), then refaults
//     trimmed pages from the store, then demand-zeroes fresh pages.
//   - Shrinkage turns resident working-set pages cold and cancels pending
//     store/fresh demand (store pages outside the WSS stay in the store).
func (v *VMMem) SetWSS(w float64) {
	if w < 0 {
		w = 0
	}
	if w > v.SizeGB {
		w = v.SizeGB
	}
	old := v.vaNeed()
	v.wss = w
	next := v.vaNeed()

	switch {
	case next > old:
		grow := next - old
		// Reuse cold resident pages: they become working-set resident.
		reuse := min2(grow, v.coldResident)
		v.coldResident -= reuse
		v.needResident += reuse
		grow -= reuse
		// Refault previously trimmed pages.
		refault := min2(grow, v.coldStore)
		v.coldStore -= refault
		v.needStore += refault
		grow -= refault
		// Remaining growth is never-touched memory.
		v.needFresh += grow
	case next < old:
		shrink := old - next
		// Cancel pending fresh demand first (cheapest).
		cf := min2(shrink, v.needFresh)
		v.needFresh -= cf
		shrink -= cf
		// Pending store demand returns to cold store.
		cs := min2(shrink, v.needStore)
		v.needStore -= cs
		v.coldStore += cs
		shrink -= cs
		// Resident working-set pages go cold.
		cr := min2(shrink, v.needResident)
		v.needResident -= cr
		v.coldResident += cr
	}
}

// Rotate models allocation churn: gb of working-set pages are freed by the
// guest and re-allocated at different guest-physical addresses (the
// per-iteration alloc/free of LLM fine-tuning, §4.2). Because the VM is
// opaque, the hypervisor cannot reclaim the freed pages: they stay
// resident as cold pages until trimmed. The replacement allocation prefers
// untouched GPA (demand-zero, needs fresh frames), then recycles trimmed
// addresses (refault), then reuses cold resident addresses (free).
func (v *VMMem) Rotate(gb float64) {
	freed := min2(gb, v.needResident)
	if freed <= 0 {
		return
	}
	v.needResident -= freed
	v.coldResident += freed

	remaining := freed
	freshAvail := v.VAGB() - (v.needResident + v.needStore + v.needFresh + v.coldResident + v.coldStore)
	if freshAvail < 0 {
		freshAvail = 0
	}
	fresh := min2(remaining, freshAvail)
	v.needFresh += fresh
	remaining -= fresh

	refault := min2(remaining, v.coldStore)
	v.coldStore -= refault
	v.needStore += refault
	remaining -= refault

	reuse := min2(remaining, v.coldResident)
	v.coldResident -= reuse
	v.needResident += reuse
}

// accessMix returns the probability an access is served by PA, by
// resident VA, by a demand-zero soft fault (first touch of a fresh page)
// or by a hard fault (page-in from the backing store), given zNUMA
// placement: the hot subset of the working set fills PA first, then the
// remainder spills to VA; the missing share of the VA working set faults,
// split between soft and hard according to the pending fresh/store page
// populations.
func (v *VMMem) accessMix() (pPA, pVA, pSoft, pHard float64) {
	if v.wss <= 0 {
		return 1, 0, 0, 0
	}
	hotGB := v.HotSize * v.wss
	coldGB := v.wss - hotGB

	hotInPA := min2(hotGB, v.PAGB)
	paLeft := v.PAGB - hotInPA
	coldInPA := min2(coldGB, paLeft)

	vaShare := 0.0
	if hotGB > 0 {
		vaShare += v.HotFrac * (hotGB - hotInPA) / hotGB
	}
	if coldGB > 0 {
		vaShare += (1 - v.HotFrac) * (coldGB - coldInPA) / coldGB
	}

	// Within the VA working set, accesses are uniform; the missing
	// fraction faults, split soft/hard by the pending page populations.
	need := v.vaNeed()
	missFrac := 0.0
	if need > 0 {
		missFrac = v.Missing() / need
		if missFrac > 1 {
			missFrac = 1
		}
	}
	pFault := vaShare * missFrac
	if m := v.Missing(); m > 0 {
		pHard = pFault * v.needStore / m
		pSoft = pFault - pHard
	}
	pVA = vaShare - pFault
	pPA = 1 - vaShare
	return pPA, pVA, pSoft, pHard
}

// stealResident forcibly evicts up to gb of working-set resident pages
// (thrashing under pool pressure): they move to the backing store and will
// fault on next access. Returns the GB actually stolen.
func (v *VMMem) stealResident(gb float64) float64 {
	taken := min2(gb, v.needResident)
	v.needResident -= taken
	v.needStore += taken
	return taken
}

// trimCold moves up to gb of cold resident pages to the backing store,
// freeing pool frames. Returns the GB trimmed.
func (v *VMMem) trimCold(gb float64) float64 {
	taken := min2(gb, v.coldResident)
	v.coldResident -= taken
	v.coldStore += taken
	return taken
}

// admit materializes up to gb of missing working-set pages (store first,
// then fresh). The caller must have reserved pool frames. It returns the
// GB admitted and how much of it came from the backing store (I/O cost).
func (v *VMMem) admit(gb float64) (admitted, fromStore float64) {
	fs := min2(gb, v.needStore)
	v.needStore -= fs
	v.needResident += fs
	gb -= fs
	ff := min2(gb, v.needFresh)
	v.needFresh -= ff
	v.needResident += ff
	return fs + ff, fs
}

// checkInvariants panics if a page population went negative or resident
// exceeds the VA size; used by tests and enabled in Server.Tick.
func (v *VMMem) checkInvariants() error {
	for _, q := range []struct {
		name string
		val  float64
	}{
		{"needResident", v.needResident},
		{"needStore", v.needStore},
		{"needFresh", v.needFresh},
		{"coldResident", v.coldResident},
		{"coldStore", v.coldStore},
	} {
		if q.val < -1e-6 {
			return fmt.Errorf("memsim: vm %d %s negative: %g", v.ID, q.name, q.val)
		}
	}
	if v.ResidentVA() > v.VAGB()+1e-6 {
		return fmt.Errorf("memsim: vm %d resident VA %.3f exceeds VA size %.3f", v.ID, v.ResidentVA(), v.VAGB())
	}
	if got, want := v.needResident+v.needStore+v.needFresh, v.vaNeed(); got > want+1e-6 {
		return fmt.Errorf("memsim: vm %d working-set accounting %.3f exceeds need %.3f", v.ID, got, want)
	}
	return nil
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
