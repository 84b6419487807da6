package experiments

import (
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	want := []string{
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig15", "fig17", "fig18", "fig19",
		"fig20", "fig21", "tab1", "tab2", "sec45",
		"abl-faults", "abl-fleetmig", "abl-fleetmit", "abl-forest", "abl-monitor",
		"abl-percentile", "abl-scenarios", "abl-windows",
	}
	if len(all) != len(want) {
		var ids []string
		for _, e := range all {
			ids = append(ids, e.ID)
		}
		t.Fatalf("registry has %d experiments %v, want %d", len(all), ids, len(want))
	}
	got := map[string]bool{}
	for _, e := range all {
		got[e.ID] = true
		if e.Title == "" || e.PaperClaim == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestRegistryOrdering(t *testing.T) {
	all := All()
	// Figures come first, numerically.
	if all[0].ID != "fig2" {
		t.Errorf("first experiment = %s", all[0].ID)
	}
	idx := map[string]int{}
	for i, e := range all {
		idx[e.ID] = i
	}
	if idx["fig10"] < idx["fig9"] {
		t.Error("fig10 must sort after fig9 (numeric, not lexicographic)")
	}
	if idx["tab1"] < idx["fig21"] {
		t.Error("tables must sort after figures")
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig20"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id must fail")
	}
}

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"small": ScaleSmall, "medium": ScaleMedium, "full": ScaleFull} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Errorf("ParseScale(%s) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("unknown scale must fail")
	}
	if ScaleSmall.String() != "small" {
		t.Error("scale string wrong")
	}
}

func TestContextCachesTrace(t *testing.T) {
	ctx := NewContext(ScaleSmall, nil)
	a, err := ctx.Trace()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("trace must be cached")
	}
}

func TestCapacityFleetSizing(t *testing.T) {
	ctx := NewContext(ScaleSmall, nil)
	small, err := ctx.CapacityFleet(0.4)
	if err != nil {
		t.Fatal(err)
	}
	big, err := ctx.CapacityFleet(1.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Servers) >= len(big.Servers) {
		t.Errorf("fleet sizing not monotone: %d vs %d servers", len(small.Servers), len(big.Servers))
	}
}

// TestFastExperimentsRun smoke-tests the quick experiments end to end.
func TestFastExperimentsRun(t *testing.T) {
	ctx := NewContext(ScaleSmall, nil)
	for _, id := range []string{"tab1", "tab2", "fig2", "fig3", "fig6", "fig7", "fig15"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Errorf("%s produced no tables", id)
		}
		for _, tab := range tables {
			if len(tab.Headers) == 0 || len(tab.Rows) == 0 {
				t.Errorf("%s produced an empty table %q", id, tab.Title)
			}
		}
	}
}

// TestSlowExperimentsRun covers the heavier experiments; skipped in -short.
func TestSlowExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiments skipped in -short mode")
	}
	ctx := NewContext(ScaleSmall, nil)
	for _, id := range []string{"fig18", "fig21"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Errorf("%s produced no tables", id)
		}
	}
}

func TestFig21Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig21 skipped in -short mode")
	}
	// The mitigation ordering of §4.4 must hold: None never recovers from
	// the second contention; Extend and Migrate do.
	runs := map[string]*fig21Run{}
	for _, p := range fig21Policies() {
		r, err := runFig21Policy(p)
		if err != nil {
			t.Fatal(err)
		}
		runs[p.name] = r
	}
	mean2nd := func(name string) float64 {
		r := runs[name]
		var sum float64
		for tt := 255; tt < fig21Duration; tt++ {
			sum += r.cacheSlow[tt]
		}
		return sum / float64(fig21Duration-255)
	}
	none := mean2nd("None")
	trim := mean2nd("Trim-Reactive")
	extend := mean2nd("Extend-Proactive")
	migrate := mean2nd("Migrate-Proactive")
	if none < 2 {
		t.Errorf("None must stay degraded through contention 2, mean %v", none)
	}
	if trim < 1.5 {
		t.Errorf("Trim cannot resolve contention 2, mean %v", trim)
	}
	if extend > trim {
		t.Errorf("Extend (%v) must beat Trim (%v) at contention 2", extend, trim)
	}
	if migrate > trim {
		t.Errorf("Migrate (%v) must beat Trim (%v) at contention 2", migrate, trim)
	}
}
