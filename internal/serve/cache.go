package serve

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/trace"
)

// ModelKey identifies one trained long-term model: the trace it was fitted
// on (by fingerprint), the train/serve split, and the complete training
// configuration (predict.LongTermConfig is a comparable value type, so any
// hyperparameter difference — forest size, tree bounds, safety buckets,
// history thresholds — yields a distinct key). Two services with equal
// keys can share a model.
type ModelKey struct {
	TraceID   uint64
	TrainUpTo int
	Config    predict.LongTermConfig
}

// ModelCache memoizes trained prediction models so cold starts pay forest
// training once per (trace, config) and every later service or request
// reuses the fitted model. Lookups are singleflight: concurrent Get calls
// with the same key block on one training run instead of racing their own.
// A cache may be shared across services; a nil entry is trained at most
// once even under concurrent first use.
type ModelCache struct {
	mu      sync.Mutex
	entries map[ModelKey]*cacheEntry
	hits    int64
	misses  int64
}

type cacheEntry struct {
	once  sync.Once
	model *predict.LongTerm
	err   error
}

// NewModelCache returns an empty cache.
func NewModelCache() *ModelCache {
	return &ModelCache{entries: make(map[ModelKey]*cacheEntry)}
}

// CacheStats reports cache effectiveness. A "hit" is a Get that found an
// existing entry (even one still training); a "miss" created the entry and
// ran train.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Models int   `json:"models"`
}

// Get returns the model for key, calling train to build it on first use.
// Training errors are cached too: a trace/config pair that cannot train
// fails fast on every later lookup rather than retraining forever.
func (c *ModelCache) Get(key ModelKey, train func() (*predict.LongTerm, error)) (*predict.LongTerm, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.model, e.err = train() })
	return e.model, e.err
}

// Stats snapshots the cache counters.
func (c *ModelCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Models: len(c.entries)}
}

// Fingerprint hashes a trace's identity-bearing fields (horizon, VM
// lifetimes, allocations, subscriptions) into a 64-bit key component.
// It deliberately skips the utilization series — hashing every sample of
// every VM would dominate cold-start cost — so traces differing only in
// utilization collide; the generator's determinism (same config, same
// trace) makes that combination unreachable in practice.
func Fingerprint(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(tr.Horizon))
	put(uint64(int64(tr.StartWeekday)))
	put(uint64(len(tr.Subscriptions)))
	put(uint64(len(tr.VMs)))
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		put(uint64(vm.ID))
		put(uint64(vm.Subscription))
		put(uint64(vm.Start))
		put(uint64(vm.End))
		put(uint64(int64(vm.Offering)))
		for _, k := range resources.Kinds {
			put(math.Float64bits(vm.Alloc[k]))
		}
	}
	return h.Sum64()
}
