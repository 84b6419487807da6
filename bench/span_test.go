package main

import (
	"math"
	"testing"
)

// A layer's self time is its span minus the part of it its children
// cover: overlapping children count once, a child is clipped to its
// parent, and grandchildren only reduce their own parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "handler", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "handler", Start: 40, End: 80},   // overlaps 2 by 20
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 130},     // clipped to 90..100
		{ID: 5, Parent: 2, Name: "admit", Start: 20, End: 50},     // grandchild of 1
		{ID: 6, Parent: 99, Name: "orphan", Start: 200, End: 210}, // parent not recorded
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{
		1: 100 - (50 + 20 + 10), // children cover 10..80 and 90..100
		2: 50 - 30,
		3: 40,
		4: 40,
		5: 30,
		6: 10,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}

	rows := summarize(spans)
	byName := map[string]spanSummary{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if h := byName["handler"]; h.Count != 2 || math.Abs(h.TotalMs-90e-6) > 1e-12 || math.Abs(h.SelfMs-60e-6) > 1e-12 {
		t.Errorf("handler summary = %+v", h)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].SelfMs < rows[i].SelfMs {
			t.Errorf("summary not ordered by self time: %+v", rows)
		}
	}
}

// The untraced pass hands drivers a nil tracer; every call must be a
// no-op rather than a crash.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	b := tr.buf()
	if b != nil || b.id() != 0 {
		t.Fatal("nil tracer handed out a live buffer")
	}
	ran := false
	b.timed(0, "x", func() { ran = true })
	if !ran || tr.all() != nil {
		t.Fatal("nil span buffer did not run the call, or recorded it")
	}
}
