package sim

// eventQueue is a calendar (bucket) queue over trace ticks. The replay
// horizon is known up front and small (a two-week trace is 4032 samples),
// so a flat slice of buckets indexed by tick beats a heap: Push is an
// append, PopDue is a slice swap, and there is no comparison cost at all.
//
// Each bucket holds the VM IDs with a pending event at that tick. IDs are
// unique for the lifetime of a run and never reused, which makes the
// shard's pos index a perfect stale-event filter: a popped ID that is no
// longer placed (departed, or emigrated to another shard) is simply
// skipped, so events never need to be cancelled.
//
// Determinism: PopDue returns a bucket in push order, which the queue
// does not otherwise constrain. The order events apply in is the delta
// pass's job: it marks each due VM's record position in a bitmap and
// walks the bits ascending, so within a shard a tick's events apply in
// record-position order whatever order they were pushed. Shards step in
// index order and the exchange sorts requests by (Tick, SrcShard, VMID),
// so the fleet-wide order is (tick, shard, position).
type eventQueue struct {
	base     int     // tick of buckets[0]
	buckets  [][]int // buckets[t-base] = VM IDs due at tick t
	freelist [][]int // recycled bucket slices
}

func newEventQueue(base, horizon int) *eventQueue {
	n := horizon - base
	if n < 0 {
		n = 0
	}
	return &eventQueue{base: base, buckets: make([][]int, n)}
}

// Push schedules an event for id at tick. Ticks before base or at/after
// the horizon are dropped: the replay never looks at them.
func (q *eventQueue) Push(tick, id int) {
	i := tick - q.base
	if i < 0 || i >= len(q.buckets) {
		return
	}
	if q.buckets[i] == nil && len(q.freelist) > 0 {
		q.buckets[i] = q.freelist[len(q.freelist)-1]
		q.freelist = q.freelist[:len(q.freelist)-1]
	}
	q.buckets[i] = append(q.buckets[i], id)
}

// PopDue appends the IDs due at tick t to dst in push order and drains
// the bucket. The bucket's backing slice is recycled immediately,
// so callers pass a scratch buffer they own (typically reused across
// ticks) rather than aliasing queue storage.
func (q *eventQueue) PopDue(t int, dst []int) []int {
	i := t - q.base
	if i < 0 || i >= len(q.buckets) || len(q.buckets[i]) == 0 {
		return dst
	}
	b := q.buckets[i]
	dst = append(dst, b...)
	q.freelist = append(q.freelist, b[:0])
	q.buckets[i] = nil
	return dst
}
