package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer's epoch. Parent is the id of the span
// that caused this one (0 for a root); Req ties the spans of one request
// together.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req,omitempty"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is
// the untraced pass: every method is a no-op, so drivers are written
// once and the end-to-end pass pays one nil check per call site.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf is one span list. Storm clients take one each, so 64 of them
// do not serialize on the tracer; the replay's short-lived request
// goroutines share one, which is why add locks.
type spanBuf struct {
	t     *tracer
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf registers a new per-goroutine buffer (nil on a nil tracer).
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// id reserves a span id before the span's end is known, so children can
// name their parent.
func (b *spanBuf) id() int64 {
	if b == nil {
		return 0
	}
	return b.t.next.Add(1)
}

// add records a finished span under a reserved id.
func (b *spanBuf) add(id, parent int64, name string, req int64, start, end time.Time) {
	if b == nil {
		return
	}
	s := span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(b.t.epoch).Nanoseconds(), End: end.Sub(b.t.epoch).Nanoseconds(),
	}
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// timed runs fn as a child span of parent and returns its duration.
func (b *spanBuf) timed(parent int64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	b.add(b.id(), parent, name, 0, start, end)
	return end.Sub(start)
}

// all merges every buffer, ordered by start time then id.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children
// (parallel work under one parent) are counted once, and a child is
// clipped to its parent's interval.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// summarize folds spans into one row per name, largest self time first.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := make(map[string]*spanSummary)
	for _, s := range spans {
		row := byName[s.Name]
		if row == nil {
			row = &spanSummary{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.TotalMs += float64(s.End-s.Start) / 1e6
		row.SelfMs += float64(self[s.ID]) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, row := range byName {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// spanFile is the on-disk form of one workload's traced pass.
type spanFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Summary  []spanSummary `json:"summary"`
	Spans    []span        `json:"spans"`
}

// flush writes the workload's spans and their per-name summary.
func (t *tracer) flush(path, workload string, seed int64) error {
	spans := t.all()
	data, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Summary: summarize(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
