package coach

import (
	"bytes"
	"testing"
)

// TestPublicAPIEndToEnd exercises the facade the way the quickstart
// example does: trace -> platform -> train -> request -> place.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.VMs = 150
	cfg.Subscriptions = 15
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Days() != 14 {
		t.Errorf("default trace covers %d days, want 14", tr.Days())
	}

	fleet := NewFleet(DefaultClusters(2))
	platform, err := NewPlatform(fleet, DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := platform.Train(tr, tr.Horizon/2); err != nil {
		t.Fatal(err)
	}
	placed := 0
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.End <= tr.Horizon/2 {
			continue
		}
		cvm, err := platform.Request(vm)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := platform.Place(cvm); ok {
			placed++
		}
	}
	if placed == 0 {
		t.Fatal("public API placed nothing")
	}
}

func TestTraceSaveLoadViaFacade(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.VMs = 20
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.VMs) == 0 || len(got.VMs) != len(tr.VMs) {
		t.Errorf("roundtrip kept %d of %d VMs", len(got.VMs), len(tr.VMs))
	}
}

func TestSimulateFacade(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.VMs = 120
	cfg.Subscriptions = 12
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewFleet(DefaultClusters(1))
	simCfg := SimConfigForPolicy(PolicyCoach)
	simCfg.TrainUpTo = tr.Horizon / 2
	res, err := Simulate(tr, fleet, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requested == 0 {
		t.Error("simulation saw no requests")
	}
}

func TestExperimentRegistryFacade(t *testing.T) {
	tables, err := RunExperiment("tab1", "small")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 10 {
		t.Error("tab1 must render the 10-row fungibility table")
	}
	if _, err := RunExperiment("nope", "small"); err == nil {
		t.Error("unknown experiment must fail")
	}
	if _, err := RunExperiment("tab1", "gigantic"); err == nil {
		t.Error("unknown scale must fail")
	}
}
