// Package par runs independent indexed work on every core.
//
// It is the one worker helper behind the repository's data-parallel
// loops (trace synthesis, long-term model preparation, forest training,
// the simulator's arrival and judging phases, parallel experiments).
// Callers keep output independent of the worker count by having fn(i)
// write only slot i of a result they own and folding the slots in index
// order afterwards — compute in parallel, commit in a fixed order
// (docs/DESIGN.md §8).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach calls fn(i) once for every i in [0, n) on up to workers
// goroutines and returns when every call has returned. workers <= 0
// means GOMAXPROCS. Indices are handed out dynamically, one at a time,
// so uneven items balance across workers; with one worker (or n <= 1)
// the calls run in index order on the caller's goroutine.
func ForEach(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
