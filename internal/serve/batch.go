package serve

import (
	"errors"
	"sync"
)

// ErrClosed is returned for requests submitted after shutdown began.
var ErrClosed = errors.New("serve: service is shutting down")

// ErrAlreadyAdmitted is wrapped by Admit when the VM is already placed.
var ErrAlreadyAdmitted = errors.New("already admitted")

// defaultMaxBatch is Config.MaxBatch's default.
const defaultMaxBatch = 64

// queueDepth is every queue's channel capacity: four default-sized
// batches, so the next batches form while the previous pass runs. A full
// queue only blocks the submitter; the loop never stops draining.
const queueDepth = 4 * defaultMaxBatch

// BatchStats reports how effectively concurrent requests coalesced.
type BatchStats struct {
	Requests int64   `json:"requests"`
	Batches  int64   `json:"batches"`
	MaxBatch int     `json:"max_batch"`
	MeanSize float64 `json:"mean_size"`
	// P50Size is the median batch size: the smallest size s such that at
	// least half of all batches had size ≤ s.
	P50Size int `json:"p50_size"`
}

// job is one queued request and the private channel its response returns
// on.
type job[Req, Resp any] struct {
	req  Req
	resp chan Resp
}

// batcher coalesces concurrent requests into batched passes. Requests are
// submitted to one of N queues; one background goroutine per queue blocks
// for the first request, drains whatever else is already queued (up to
// maxBatch, never waiting for more), runs one pass over the whole batch
// and fans the responses back out. Coalescing is purely opportunistic: an
// idle service adds no latency, while a loaded one forms large batches
// naturally because requests queue up behind the running pass. A pass must
// answer each request exactly as it would have alone, so responses never
// depend on which requests happened to share a batch — a serial request is
// simply a batch of one.
//
// Admissions use one queue per fleet shard (admission never crosses
// cluster boundaries, so batches never do either).
type batcher[Req, Resp any] struct {
	maxBatch int
	// run performs one batched pass, filling out[i] (zeroed, len(reqs))
	// for reqs[i]. It is called from queue's loop goroutine only, so
	// per-queue scratch needs no locking of its own.
	run    func(queue int, reqs []Req, out []Resp)
	queues []chan job[Req, Resp]
	done   sync.WaitGroup

	// respPool recycles the per-request response channels (each carries
	// exactly one value per use, so a drained channel is safely reusable).
	respPool sync.Pool

	mu sync.Mutex
	// senders counts submits that passed the closed check but have not
	// finished sending; close() waits for them before closing the queues,
	// so no send can hit a closed channel.
	senders  sync.WaitGroup
	closed   bool
	requests int64
	batches  int64
	sizes    []int64 // sizes[n] counts batches of n requests
}

// newBatcher starts one collection loop per queue.
func newBatcher[Req, Resp any](queues, maxBatch int, run func(queue int, reqs []Req, out []Resp)) *batcher[Req, Resp] {
	b := &batcher[Req, Resp]{
		maxBatch: maxBatch,
		run:      run,
		queues:   make([]chan job[Req, Resp], queues),
		sizes:    make([]int64, maxBatch+1),
	}
	for q := range b.queues {
		b.queues[q] = make(chan job[Req, Resp], queueDepth)
		b.done.Add(1)
		go b.loop(q)
	}
	return b
}

// submit enqueues one request and blocks for its response.
func (b *batcher[Req, Resp]) submit(queue int, req Req) (Resp, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		var zero Resp
		return zero, ErrClosed
	}
	b.requests++
	b.senders.Add(1)
	b.mu.Unlock()
	resp, _ := b.respPool.Get().(chan Resp)
	if resp == nil {
		resp = make(chan Resp, 1)
	}
	// The loop drains its queue until the channel closes, so this send
	// always completes even when the queue is momentarily full.
	b.queues[queue] <- job[Req, Resp]{req: req, resp: resp}
	b.senders.Done()
	out := <-resp
	b.respPool.Put(resp)
	return out, nil
}

// close stops accepting work, waits for queued requests to be answered and
// stops every loop goroutine. It is idempotent and waits for the drain
// either way.
func (b *batcher[Req, Resp]) close() {
	b.mu.Lock()
	first := !b.closed
	b.closed = true
	b.mu.Unlock()
	if first {
		b.senders.Wait()
		for _, q := range b.queues {
			close(q)
		}
	}
	b.done.Wait()
}

// stats snapshots the coalescing counters.
func (b *batcher[Req, Resp]) stats() BatchStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BatchStats{Requests: b.requests, Batches: b.batches}
	if b.batches == 0 {
		return s
	}
	s.MeanSize = float64(b.requests) / float64(b.batches)
	half := (b.batches + 1) / 2
	var seen int64
	for n, count := range b.sizes {
		if count == 0 {
			continue
		}
		s.MaxBatch = n
		if seen < half {
			s.P50Size = n
		}
		seen += count
	}
	return s
}

// loop is one queue's single consumer.
func (b *batcher[Req, Resp]) loop(queue int) {
	defer b.done.Done()
	jobs := make([]job[Req, Resp], 0, b.maxBatch)
	reqs := make([]Req, 0, b.maxBatch)
	scratch := make([]Resp, b.maxBatch)
	for first := range b.queues[queue] {
		jobs, reqs = append(jobs[:0], first), append(reqs[:0], first.req)
	drain:
		for len(jobs) < b.maxBatch {
			select {
			case j, ok := <-b.queues[queue]:
				if !ok {
					break drain // closed: flush, then the range ends
				}
				jobs, reqs = append(jobs, j), append(reqs, j.req)
			default:
				break drain
			}
		}
		out := scratch[:len(jobs)]
		clear(out)
		b.run(queue, reqs, out)
		b.mu.Lock()
		b.batches++
		b.sizes[len(jobs)]++
		b.mu.Unlock()
		for i, j := range jobs {
			j.resp <- out[i]
		}
	}
}
