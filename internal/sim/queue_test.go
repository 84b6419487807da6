package sim

import (
	"container/heap"
	"slices"
	"testing"
)

// sameIDs reports whether got and want hold the same ids, counting
// repeats: PopDue returns a bucket in push order, so order is not part
// of its contract.
func sameIDs(got, want []int) bool {
	got, want = slices.Clone(got), slices.Clone(want)
	slices.Sort(got)
	slices.Sort(want)
	return slices.Equal(got, want)
}

func TestEventQueueBasics(t *testing.T) {
	q := newEventQueue(10, 20)
	q.Push(12, 7)
	q.Push(12, 3)
	q.Push(12, 5)
	q.Push(15, 1)
	// Out-of-range ticks are dropped: the replay never visits them.
	q.Push(9, 99)
	q.Push(20, 99)
	q.Push(-1, 99)
	if n := pendingEvents(q); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	if got := q.PopDue(11, nil); len(got) != 0 {
		t.Fatalf("PopDue(11) = %v, want empty", got)
	}
	if got, want := q.PopDue(12, nil), []int{3, 5, 7}; !sameIDs(got, want) {
		t.Fatalf("PopDue(12) = %v, want %v in any order", got, want)
	}
	// Draining is destructive and the freelist recycles the bucket.
	if got := q.PopDue(12, nil); len(got) != 0 {
		t.Fatalf("second PopDue(12) = %v, want empty", got)
	}
	q.Push(16, 2) // reuses the recycled bucket slice
	if got := q.PopDue(15, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("PopDue(15) = %v, want [1]", got)
	}
	if got := q.PopDue(16, nil); len(got) != 1 || got[0] != 2 {
		t.Fatalf("PopDue(16) = %v, want [2]", got)
	}
	if n := pendingEvents(q); n != 0 {
		t.Fatalf("Len after drain = %d, want 0", n)
	}
}

// TestEventQueuePopDueAppends pins the scratch-buffer contract: PopDue
// appends to dst and leaves what dst already held in place.
func TestEventQueuePopDueAppends(t *testing.T) {
	q := newEventQueue(0, 8)
	q.Push(3, 9)
	q.Push(3, 4)
	dst := q.PopDue(3, []int{100})
	if len(dst) != 3 || dst[0] != 100 || !sameIDs(dst[1:], []int{4, 9}) {
		t.Fatalf("PopDue = %v, want 100 then {4, 9} in any order", dst)
	}
}

// eventKey is a fleet-wide event identity for the fuzz cross-check.
type eventKey struct{ tick, shard, vm int }

// keyHeap is the reference priority queue: a plain container/heap over
// (tick, shard, vmID). Within one (tick, shard) the queue's order is push
// order — the delta pass orders by record position itself — so the fuzz
// compares each such group as a multiset.
type keyHeap []eventKey

func (h keyHeap) Len() int { return len(h) }
func (h keyHeap) Less(i, j int) bool {
	if h[i].tick != h[j].tick {
		return h[i].tick < h[j].tick
	}
	if h[i].shard != h[j].shard {
		return h[i].shard < h[j].shard
	}
	return h[i].vm < h[j].vm
}
func (h keyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *keyHeap) Push(x interface{}) { *h = append(*h, x.(eventKey)) }
func (h *keyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// FuzzEventQueue cross-checks the calendar queue against a reference
// container/heap on random (tick, shard, vmID) keys: draining per-shard
// calendar queues tick-by-tick in shard order must yield, for each
// (tick, shard), exactly the heap's ids for it, duplicates included.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{5, 1, 200, 5, 0, 7, 5, 1, 3, 63, 3, 255, 0, 2, 0})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1}) // duplicate keys
	f.Fuzz(func(t *testing.T, data []byte) {
		const shards, horizon = 4, 64
		qs := make([]*eventQueue, shards)
		for i := range qs {
			qs[i] = newEventQueue(0, horizon)
		}
		ref := &keyHeap{}
		for ; len(data) >= 3; data = data[3:] {
			k := eventKey{
				tick:  int(data[0]) % horizon,
				shard: int(data[1]) % shards,
				vm:    int(data[2]),
			}
			qs[k.shard].Push(k.tick, k.vm)
			heap.Push(ref, k)
		}
		var scratch, want []int
		for tick := 0; tick < horizon; tick++ {
			for sh := 0; sh < shards; sh++ {
				scratch = qs[sh].PopDue(tick, scratch[:0])
				want = want[:0]
				for ref.Len() > 0 && (*ref)[0].tick == tick && (*ref)[0].shard == sh {
					want = append(want, heap.Pop(ref).(eventKey).vm)
				}
				if !sameIDs(scratch, want) {
					t.Fatalf("tick %d shard %d: queue popped %v, heap %v", tick, sh, scratch, want)
				}
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("%d events never popped from the calendar queue", ref.Len())
		}
	})
}

// pendingEvents counts the events q holds.
func pendingEvents(q *eventQueue) int {
	n := 0
	for _, b := range q.buckets {
		n += len(b)
	}
	return n
}
