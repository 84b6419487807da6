package main

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/serve"
	"github.com/coach-oss/coach/internal/trace"
)

func smallTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	sp, err := scenario.Preset("chaos")
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.Scaled(300, 12)
	sp.Seed = seed
	tr, err := trace.GenerateScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func encodeSchedule(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	lo, hi := replayWindow(tr, 3)
	evs, err := buildSchedule(tr, lo, hi, 2*time.Second, 6*samplesPerHour)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(evs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The same seed must give the byte-identical request stream, and another
// seed another one.
func TestScheduleDeterministic(t *testing.T) {
	a, b := encodeSchedule(t, smallTrace(t, 7)), encodeSchedule(t, smallTrace(t, 7))
	if !bytes.Equal(a, b) {
		t.Fatal("two builds from the same seed differ")
	}
	if c := encodeSchedule(t, smallTrace(t, 8)); bytes.Equal(a, c) {
		t.Fatal("a different seed produced the same schedule")
	}
}

func TestScheduleOrder(t *testing.T) {
	tr := smallTrace(t, 7)
	lo, hi := replayWindow(tr, 3)
	wall := 2 * time.Second
	evs, err := buildSchedule(tr, lo, hi, wall, 6*samplesPerHour)
	if err != nil {
		t.Fatal(err)
	}
	admitAt := map[int]int{}
	ticks, admits, reports, releases := 0, 0, 0, 0
	for i, ev := range evs {
		if i > 0 && ev.Due < evs[i-1].Due {
			t.Fatalf("event %d is due before event %d", i, i-1)
		}
		if ev.Due < 0 || ev.Due >= wall {
			t.Fatalf("event %d due at %s, outside [0,%s)", i, ev.Due, wall)
		}
		switch ev.Kind {
		case evTick:
			ticks++
		case evAdmit:
			if _, dup := admitAt[ev.VM]; dup {
				t.Fatalf("VM %d admitted twice", ev.VM)
			}
			admitAt[ev.VM] = i
			admits++
		case evReport, evRelease:
			at, ok := admitAt[ev.VM]
			if !ok || at >= i {
				t.Fatalf("VM %d: kind %d at position %d precedes its admit", ev.VM, ev.Kind, i)
			}
			if ev.Kind == evRelease {
				delete(admitAt, ev.VM) // nothing may follow a release
				releases++
			} else {
				reports++
			}
		}
	}
	if ticks != hi-lo {
		t.Errorf("%d ticks for %d samples", ticks, hi-lo)
	}
	if admits == 0 || reports == 0 || releases == 0 {
		t.Errorf("schedule misses a request kind: %d admits, %d reports, %d releases", admits, reports, releases)
	}
	if _, err := buildSchedule(tr, hi, lo, wall, 1); err == nil {
		t.Error("an empty window was accepted")
	}
}

// The ledgers are what turns a skipped drain or a leaked VM into a
// non-zero exit.
func TestLedgerChecks(t *testing.T) {
	clean := serve.Stats{Clusters: []serve.ClusterStats{{Admitted: 10, Released: 10}}}
	if v := checkDrained(clean); len(v) != 0 {
		t.Errorf("clean drain flagged: %v", v)
	}
	undrained := serve.Stats{Placed: 3, Clusters: []serve.ClusterStats{{Admitted: 10, Released: 7}}}
	undrained.DataPlane.AttachedVMs = 3
	if v := checkDrained(undrained); len(v) != 3 {
		t.Errorf("skipped drain: got %d violations, want 3: %v", len(v), v)
	}

	live := serve.Stats{Placed: 4, Clusters: []serve.ClusterStats{{Admitted: 10, Released: 5}}}
	live.DataPlane.AttachedVMs, live.DataPlane.LostVMs = 4, 1
	if v := checkQuiescent(live, 10); len(v) != 0 {
		t.Errorf("balanced replay flagged: %v", v)
	}
	live.DataPlane.PendingHandoffs = 1
	live.DataPlane.AttachedVMs = 3
	if v := checkQuiescent(live, 9); len(v) != 3 {
		t.Errorf("unbalanced replay: got %d violations, want 3: %v", len(v), v)
	}
}
