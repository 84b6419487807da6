package timing

import (
	"strings"
	"sync"
	"testing"
)

// tree is a small two-root declaration: a set-up root and a run root
// with a nested loop.
var tree = []Stage{
	{"setup", -1},
	{"run", -1},
	{"load", 1},
	{"loop", 1},
	{"step", 3},
	{"wait", 3},
}

// TestSampleIsAllocationFree holds a sample to no allocation, on the tree
// and on laps.
func TestSampleIsAllocationFree(t *testing.T) {
	tm := New(tree)
	laps := tm.NewLaps()
	if n := testing.AllocsPerRun(100, func() {
		s := tm.Start()
		s = tm.Since(2, s)
		laps.Lap(4, s)
	}); n != 0 {
		t.Fatalf("a sample allocates %v times", n)
	}
}

// TestConcurrentAdds adds from many goroutines at once; the totals must
// be exact (and the race detector quiet).
func TestConcurrentAdds(t *testing.T) {
	tm := New(tree)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tm.Add(4, 3, 1)
			}
		}()
	}
	wg.Wait()
	if ns, calls, _ := tm.Read(4); ns != 24000 || calls != 8000 {
		t.Fatalf("8 goroutines × 1000 adds of 3 ns: %d ns over %d calls", ns, calls)
	}
}

// TestNilIsNoOp: a nil tree and nil laps take every call, run Alloc's
// function and report nothing.
func TestNilIsNoOp(t *testing.T) {
	var tm *Tree
	ran := false
	tm.Alloc(0, func() { ran = true })
	laps := tm.NewLaps()
	laps.Lap(1, laps.Start())
	tm.Merge(laps, 2)
	tm.Add(1, 5, 1)
	if !ran || laps != nil || tm.Since(1, tm.Start()) != 0 || tm.Coverage(1) != 0 || tm.String() != "" {
		t.Fatal("a nil tree must run Alloc's function and do nothing else")
	}
}

// TestMergeAndCoverage merges two goroutines' laps at a divisor of 2 and
// checks the leaves' coverage of their root and the table's layout.
func TestMergeAndCoverage(t *testing.T) {
	tm := New(tree)
	a, b := tm.NewLaps(), tm.NewLaps()
	a.ns[4], a.calls[4] = 600, 3
	b.ns[4], b.calls[4] = 200, 1
	tm.Merge(a, 2)
	tm.Merge(b, 2)
	if ns, calls, _ := tm.Read(4); ns != 400 || calls != 4 {
		t.Fatalf("merged step: %d ns over %d calls, want 400 over 4", ns, calls)
	}
	tm.Add(1, 1000, 1)
	tm.Add(2, 300, 1)
	tm.Add(3, 600, 1)
	tm.Add(5, 200, 1)
	// Leaves of run: load 300, step 400, wait 200; the loop is a parent.
	if got := tm.Coverage(1); got != 0.9 {
		t.Fatalf("coverage %v, want 0.9", got)
	}
	tm.Alloc(0, func() { _ = make([]byte, 1<<20) })
	table := tm.String()
	for _, want := range []string{"\n  loop ", "\n    step ", "leaves cover 90.0% of run\n"} {
		if !strings.Contains(table, want) {
			t.Errorf("table lacks %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "of setup") {
		t.Errorf("a childless root has no coverage line:\n%s", table)
	}
	if _, calls, bytes := tm.Read(0); calls != 1 || bytes < 1<<20 {
		t.Errorf("Alloc recorded %d calls and %d bytes, want 1 and at least 1 MiB", calls, bytes)
	}
}

// TestNewRejectsForwardParents: a parent must precede its children.
func TestNewRejectsForwardParents(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a stage whose parent follows it")
		}
	}()
	New([]Stage{{"a", 1}, {"b", -1}})
}
