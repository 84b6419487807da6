// Package memsim simulates CoachVM memory management on one server: the
// guaranteed PA-backed portion, the oversubscribed VA-backed portion fed
// from a shared physical pool, zNUMA funneling, the disk backing store,
// and the trim / extend / migrate mechanics Coach's mitigations rely on
// (paper §3.2, §3.4, §3.6).
//
// The simulator is a deterministic fluid model at GB granularity: page
// populations are tracked as continuous quantities and access latencies as
// mixtures over (PA hit, VA hit, page fault). This substitutes for the
// paper's production Hyper-V server (see docs/DESIGN.md §2): absolute numbers
// differ, but the interactions that produce Figs. 15, 18 and 21 — working
// set vs. PA size, pool exhaustion, eviction storms, mitigation bandwidth —
// are modeled directly.
package memsim

// Config holds the hardware/hypervisor parameters of the simulated server.
type Config struct {
	// PAAccessNs is the latency of an access served by guaranteed
	// (PA-backed, huge-page mapped) memory.
	PAAccessNs float64
	// VAAccessNs is the latency of an access served by resident
	// oversubscribed (VA-backed) memory; slightly slower than PA due to
	// smaller TLB reach and on-demand mapping.
	VAAccessNs float64
	// SoftFaultNs is the mean latency of a first touch to a
	// never-materialized VA page: a demand-zero soft fault through the
	// hypervisor's on-demand allocation path (no disk I/O).
	SoftFaultNs float64
	// SoftTailNs is the tail latency of that allocation path (intercepts,
	// mapping locks, TLB shootdowns): what an operation's P99 pays once
	// soft faults become non-negligible.
	SoftTailNs float64
	// FaultNs is the latency of an access that hard-faults: the page was
	// trimmed or evicted and must be read back from the NVMe backing
	// store under load.
	FaultNs float64
	// FaultBandwidthGBs is the page-in bandwidth from the backing store.
	FaultBandwidthGBs float64
	// EvictBandwidthGBs is the page-out bandwidth to the backing store.
	EvictBandwidthGBs float64
	// TrimBandwidthGBs is the background trim bandwidth (§4.5: 1.1 GB/s —
	// cold pages must be written to the backing store).
	TrimBandwidthGBs float64
	// ExtendBandwidthGBs is the rate at which unallocated server memory
	// can be added to the oversubscribed pool (§4.5: 15.7 GB/s — no
	// writeback needed).
	ExtendBandwidthGBs float64
	// MigrateBandwidthGBs is the live-migration copy bandwidth.
	MigrateBandwidthGBs float64
}

// DefaultConfig returns parameters representative of a production server
// with a local NVMe page file (paper §4.1: Dell P5600).
func DefaultConfig() Config {
	return Config{
		PAAccessNs:          100,
		VAAccessNs:          140,
		SoftFaultNs:         2_000,
		SoftTailNs:          50_000,
		FaultNs:             150_000, // NVMe page-in under contention
		FaultBandwidthGBs:   2.0,
		EvictBandwidthGBs:   1.5,
		TrimBandwidthGBs:    1.1,
		ExtendBandwidthGBs:  15.7,
		MigrateBandwidthGBs: 1.0,
	}
}
