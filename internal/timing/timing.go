// Package timing is a tree of named stage timers. A run declares its
// stages once, each under a parent, and samples them from any goroutine:
// a sample costs two monotonic clock reads and two atomic adds, with no
// map lookup and no allocation. Coarse set-up phases also record the
// bytes the process allocated while they ran. A goroutine that samples
// every tick keeps its own Laps, plain counters it adds to the tree once.
//
// Every method is a no-op on a nil *Tree or *Laps, so instrumented code
// runs unchanged, without reading the clock, when no one asked for
// timings.
package timing

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// Stage declares one timer: its name and the index of its parent in the
// same declaration list, or -1 for a root. A parent precedes its
// children.
type Stage struct {
	Name   string
	Parent int
}

// Tree holds one timer per declared stage. It is safe for concurrent use.
type Tree struct {
	stages           []Stage
	ns, calls, bytes []atomic.Int64
}

// New returns a zeroed tree over stages, which it keeps.
func New(stages []Stage) *Tree {
	for i, s := range stages {
		if s.Parent >= i || s.Parent < -1 {
			panic(fmt.Sprintf("timing: stage %q has parent %d; a parent precedes its children", s.Name, s.Parent))
		}
	}
	n := len(stages)
	return &Tree{stages: stages, ns: make([]atomic.Int64, n), calls: make([]atomic.Int64, n), bytes: make([]atomic.Int64, n)}
}

// epoch anchors Now: time.Since on a reading that carries the monotonic
// clock reads only the monotonic clock.
var epoch = time.Now()

// Now returns the monotonic clock in nanoseconds.
func Now() int64 { return int64(time.Since(epoch)) }

// Start returns Now, or 0 on a nil tree without reading the clock.
func (t *Tree) Start() int64 {
	if t == nil {
		return 0
	}
	return Now()
}

// Since adds the time from start, a Now reading, to stage id as one call
// and returns the current reading, which can start the next stage.
func (t *Tree) Since(id int, start int64) int64 {
	if t == nil {
		return 0
	}
	now := Now()
	t.Add(id, now-start, 1)
	return now
}

// Add adds ns nanoseconds over calls calls to stage id.
func (t *Tree) Add(id int, ns, calls int64) {
	if t == nil {
		return
	}
	t.ns[id].Add(ns)
	t.calls[id].Add(calls)
}

// Read returns stage id's nanoseconds, calls and bytes allocated so far.
func (t *Tree) Read(id int) (ns, calls, bytes int64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.ns[id].Load(), t.calls[id].Load(), t.bytes[id].Load()
}

// Alloc runs f as one call of stage id and also records the bytes the
// process allocated meanwhile. Reading the allocation counter stops the
// world, so Alloc is for coarse phases, not per-tick stages; the stage's
// time includes both reads, so none of it falls outside every stage.
func (t *Tree) Alloc(id int, f func()) {
	if t == nil {
		f()
		return
	}
	start := Now()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	f()
	runtime.ReadMemStats(&m)
	t.bytes[id].Add(int64(m.TotalAlloc - before))
	t.Since(id, start)
}

// Laps accumulates one goroutine's stage times with plain adds, for
// stages sampled too often to pay an atomic add each.
type Laps struct {
	ns, calls []int64
}

// NewLaps returns zeroed laps for t's stages, or nil for a nil tree.
func (t *Tree) NewLaps() *Laps {
	if t == nil {
		return nil
	}
	return &Laps{ns: make([]int64, len(t.stages)), calls: make([]int64, len(t.stages))}
}

// Start returns Now, or 0 on nil laps without reading the clock.
func (l *Laps) Start() int64 {
	if l == nil {
		return 0
	}
	return Now()
}

// Lap adds the time from start, a Now reading, to stage id as one call
// and returns the current reading, which can start the next stage.
func (l *Laps) Lap(id int, start int64) int64 {
	if l == nil {
		return 0
	}
	now := Now()
	l.ns[id] += now - start
	l.calls[id]++
	return now
}

// Total returns the nanoseconds of every stage in l.
func (l *Laps) Total() int64 {
	var sum int64
	if l != nil {
		for _, ns := range l.ns {
			sum += ns
		}
	}
	return sum
}

// Merge adds every stage of l to t with its time divided by div: laps
// from div goroutines that ran side by side become their share of the
// wall time they overlapped.
func (t *Tree) Merge(l *Laps, div int64) {
	if t == nil || l == nil {
		return
	}
	for id, ns := range l.ns {
		if l.calls[id] > 0 {
			t.Add(id, ns/div, l.calls[id])
		}
	}
}

// Coverage returns the time of root's leaves (its descendants with no
// children of their own) as a fraction of root's; 0 when root has none.
func (t *Tree) Coverage(root int) float64 {
	if t == nil || t.ns[root].Load() == 0 {
		return 0
	}
	parent := make([]bool, len(t.stages))
	for _, s := range t.stages {
		if s.Parent >= 0 {
			parent[s.Parent] = true
		}
	}
	var leaves int64
	for id := range t.stages {
		if !parent[id] && id != root && t.under(id, root) {
			leaves += t.ns[id].Load()
		}
	}
	return float64(leaves) / float64(t.ns[root].Load())
}

// under reports whether stage id descends from stage root.
func (t *Tree) under(id, root int) bool {
	for id = t.stages[id].Parent; id >= 0; id = t.stages[id].Parent {
		if id == root {
			return true
		}
	}
	return false
}

// String returns the tree as a table, one stage a line indented under
// its parent: total milliseconds, share of its root, calls, mean per call
// and bytes allocated where recorded. Each root with children ends with
// the share of its time its leaves cover.
func (t *Tree) String() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %11s %7s %9s %11s %10s\n", "stage", "total ms", "share", "calls", "mean µs", "alloc MB")
	depth := make([]int, len(t.stages))
	root := make([]int, len(t.stages))
	for id, s := range t.stages {
		root[id] = id
		if s.Parent >= 0 {
			depth[id], root[id] = depth[s.Parent]+1, root[s.Parent]
		}
		ns, calls, by := t.Read(id)
		share, mean, alloc := "", "", ""
		if r := t.ns[root[id]].Load(); r > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(ns)/float64(r))
		}
		if calls > 0 {
			mean = fmt.Sprintf("%.1f", float64(ns)/float64(calls)/1e3)
		}
		if by > 0 {
			alloc = fmt.Sprintf("%.1f", float64(by)/(1<<20))
		}
		fmt.Fprintf(&b, "%-28s %11.1f %7s %9d %11s %10s\n", strings.Repeat("  ", depth[id])+s.Name, float64(ns)/1e6, share, calls, mean, alloc)
	}
	for id, s := range t.stages {
		if c := t.Coverage(id); s.Parent < 0 && c > 0 {
			fmt.Fprintf(&b, "leaves cover %.1f%% of %s\n", 100*c, s.Name)
		}
	}
	return b.String()
}

// MarshalBinary returns String's table, so a value holding a Tree, such
// as a timed sim.Result, encodes with encoding/gob.
func (t *Tree) MarshalBinary() ([]byte, error) { return []byte(t.String()), nil }
