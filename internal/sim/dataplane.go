package sim

import (
	"math"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/memsim"
)

// latencyBuckets sizes the access-latency histogram: 8 buckets per
// doubling from latencyBase ns covers 50ns..~3ms, enough for the PA-hit
// to hard-fault latency range with <9% bucket-width error.
const (
	latencyBuckets = 128
	latencyBase    = 50.0
)

// latencyBucket maps a mean access latency to its histogram bucket.
func latencyBucket(ns float64) int {
	if ns <= latencyBase {
		return 0
	}
	b := int(8 * math.Log2(ns/latencyBase))
	if b >= latencyBuckets {
		return latencyBuckets - 1
	}
	return b
}

// latencyOf returns the representative (lower-bound) latency of a bucket.
func latencyOf(bucket int) float64 {
	return latencyBase * math.Exp2(float64(bucket)/8)
}

// DataPlaneResult aggregates the fleet-wide memory data plane of one run:
// mitigation volumes, paging volumes and the access-latency distribution
// over every (VM, tick) sample. Shards accumulate one each and merge sums
// them in shard order, so the merged result is byte-identical for any
// worker count.
type DataPlaneResult struct {
	// Policy and Mode are the mitigation configuration under test.
	Policy agent.Policy
	Mode   agent.Mode
	// Servers is the number of fleet servers running a data plane.
	Servers int
	// VMTicks counts (attached VM, 5-minute tick) samples.
	VMTicks int
	// Totals sums the servers' cumulative trim/extend/migrate/fault
	// volumes.
	Totals memsim.Totals
	// Counters sums the agents' contention and mitigation counters.
	Counters core.AgentCounters
	// FirstTrimTick, FirstExtendTick and FirstMigrateTick are the
	// evaluation-period ticks (0-based, -1 = never) at which the first
	// trim / pool-extend / migration started — the observable order of
	// the mitigation ladder.
	FirstTrimTick    int
	FirstExtendTick  int
	FirstMigrateTick int
	// Migration-landing outcomes (docs/DESIGN.md §10): completed live
	// migrations that landed on another server in their home shard
	// (SameShard), re-homed into a different cluster shard through the
	// sample-boundary exchange (CrossShard, attributed to the source
	// shard), or found no feasible target anywhere and re-landed on
	// their source (Failed). WarmArrivedGB is the pre-copied volume that
	// arrived resident at targets instead of demand-faulting.
	SameShardMigrations  int
	CrossShardMigrations int
	FailedMigrations     int
	WarmArrivedGB        float64
	// LatencyHist is a log-scale histogram of per-VM-tick mean access
	// latencies (8 buckets per doubling from 50ns). Histograms merge by
	// integer addition, which is how percentiles stay deterministic
	// across shard and worker counts.
	LatencyHist [latencyBuckets]int64
}

func newDataPlaneResult(cfg Config) *DataPlaneResult {
	return &DataPlaneResult{
		Policy:           cfg.MitigationPolicy,
		Mode:             cfg.MitigationMode,
		FirstTrimTick:    -1,
		FirstExtendTick:  -1,
		FirstMigrateTick: -1,
	}
}

// mark records first-mitigation ticks from the counter deltas at
// evaluation tick t.
func (d *DataPlaneResult) mark(t int, c core.AgentCounters) {
	if d.FirstTrimTick < 0 && c.Trims > d.Counters.Trims {
		d.FirstTrimTick = t
	}
	if d.FirstExtendTick < 0 && c.Extends > d.Counters.Extends {
		d.FirstExtendTick = t
	}
	if d.FirstMigrateTick < 0 && c.Migrations > d.Counters.Migrations {
		d.FirstMigrateTick = t
	}
	d.Counters = c
}

// merge folds o into d (shard order): sums, histogram addition, and the
// earliest first-mitigation ticks.
func (d *DataPlaneResult) merge(o *DataPlaneResult) {
	d.Servers += o.Servers
	d.VMTicks += o.VMTicks
	d.Totals = d.Totals.Add(o.Totals)
	d.Counters = d.Counters.Add(o.Counters)
	d.FirstTrimTick = minTick(d.FirstTrimTick, o.FirstTrimTick)
	d.FirstExtendTick = minTick(d.FirstExtendTick, o.FirstExtendTick)
	d.FirstMigrateTick = minTick(d.FirstMigrateTick, o.FirstMigrateTick)
	d.SameShardMigrations += o.SameShardMigrations
	d.CrossShardMigrations += o.CrossShardMigrations
	d.FailedMigrations += o.FailedMigrations
	d.WarmArrivedGB += o.WarmArrivedGB
	for i, n := range o.LatencyHist {
		d.LatencyHist[i] += n
	}
}

// minTick returns the earliest of two first-occurrence ticks, where -1
// means never.
func minTick(a, b int) int {
	switch {
	case a < 0:
		return b
	case b < 0 || a <= b:
		return a
	default:
		return b
	}
}

// SoftFaultFrac returns the share of faulted volume served by demand-zero
// soft faults rather than backing-store reads.
func (d *DataPlaneResult) SoftFaultFrac() float64 { return d.Totals.SoftFaultFrac() }

// AccessP50Ns returns the median per-VM-tick mean access latency.
func (d *DataPlaneResult) AccessP50Ns() float64 { return d.latencyPercentile(0.50) }

// AccessP99Ns returns the 99th-percentile per-VM-tick mean access latency.
func (d *DataPlaneResult) AccessP99Ns() float64 { return d.latencyPercentile(0.99) }

// AccessMaxNs returns the highest observed per-VM-tick mean access
// latency (bucket lower bound) — the worst tick any VM suffered, which
// separates policies even when contention touches too few VM-ticks to
// move the P99.
func (d *DataPlaneResult) AccessMaxNs() float64 {
	for i := latencyBuckets - 1; i >= 0; i-- {
		if d.LatencyHist[i] > 0 {
			return latencyOf(i)
		}
	}
	return 0
}

func (d *DataPlaneResult) latencyPercentile(q float64) float64 {
	var total int64
	for _, n := range d.LatencyHist {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range d.LatencyHist {
		seen += n
		if seen >= rank {
			return latencyOf(i)
		}
	}
	return latencyOf(latencyBuckets - 1)
}

// steadyObs caches one steady server's per-tick contribution to the
// shard's DataPlaneResult: the VM-tick count and the latency-histogram
// increments its (unchanging) frame produces. While the server stays
// steady its frame is bit-identical every tick, so applying the cached
// integer increments equals re-walking the frame. ticks pins the cache
// to the server's real-tick count: any fresh full tick (a touched
// server re-simulating and settling back to steady) may change the
// frame, which must invalidate the cache.
type steadyObs struct {
	valid   bool
	ticks   int64
	vmTicks int
	bucket  []int32
	count   []int64
}

// observeSparse folds one tick's frames into the shard's result: every
// live VM slot of a frame adds one VM-tick and one latency-histogram
// count. Servers that stayed steady replay their cached increments
// instead; only frames that could have changed are walked.
func (st *shardState) observeSparse(frames []*memsim.TickFrame) {
	steady := st.sh.DP.Steady()
	servers := st.sh.DP.Servers()
	res := st.dpRes
	for i, f := range frames {
		o := &st.obs[i]
		tc := servers[i].Server.TickCount()
		if steady[i] && o.valid && o.ticks == tc {
			res.VMTicks += o.vmTicks
			for j, b := range o.bucket {
				res.LatencyHist[b] += o.count[j]
			}
			continue
		}
		o.valid = false
		o.vmTicks = 0
		o.bucket = o.bucket[:0]
		o.count = o.count[:0]
		cache := steady[i]
		for j := 0; j < f.Len(); j++ {
			if f.Departed(j) {
				continue
			}
			res.VMTicks++
			b := latencyBucket(f.At(j).MeanNs)
			res.LatencyHist[b]++
			if cache {
				o.vmTicks++
				o.addBucket(int32(b))
			}
		}
		o.valid = cache
		o.ticks = tc
	}
}

func (o *steadyObs) addBucket(b int32) {
	for j, have := range o.bucket {
		if have == b {
			o.count[j]++
			return
		}
	}
	o.bucket = append(o.bucket, b)
	o.count = append(o.count, 1)
}
