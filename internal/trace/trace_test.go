package trace

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/timeseries"
)

// testTrace is generated once and shared by read-only tests.
var testTrace *Trace

func getTrace(t *testing.T) *Trace {
	t.Helper()
	if testTrace == nil {
		testTrace = capacityTrace(t, 400, 40)
	}
	return testTrace
}

// capacityTrace generates the capacity preset rescaled to a target of
// vms VMs (the realized count is a Poisson draw around it).
func capacityTrace(t *testing.T, vms, subscriptions int) *Trace {
	t.Helper()
	sp, err := scenario.Preset("capacity")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateScenario(sp.Scaled(vms, subscriptions))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGenerateValidates(t *testing.T) {
	tr := getTrace(t)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// withProcs runs f at the given GOMAXPROCS and restores the old value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

func TestCalibrationLongRunningShare(t *testing.T) {
	tr := getTrace(t)
	long := tr.LongRunning()
	frac := float64(len(long)) / float64(len(tr.VMs))
	// Paper Fig. 2: ~28% of VMs last more than one day.
	if frac < 0.18 || frac > 0.40 {
		t.Errorf("long-running fraction = %.2f, want ~0.28", frac)
	}

	var longHours, totalHours float64
	for i := range tr.VMs {
		h := tr.VMs[i].ResourceHours(resources.CPU)
		totalHours += h
		if tr.VMs[i].LongRunning() {
			longHours += h
		}
	}
	// Paper: ~96% of core-hours come from >1-day VMs.
	if share := longHours / totalHours; share < 0.85 {
		t.Errorf("long-running core-hour share = %.2f, want > 0.85", share)
	}
}

func TestCalibrationMedianSize(t *testing.T) {
	tr := getTrace(t)
	var cores []float64
	for i := range tr.VMs {
		cores = append(cores, tr.VMs[i].Cores())
	}
	// Paper §2.1: median VM has 4 cores.
	n := 0
	for _, c := range cores {
		if c <= 4 {
			n++
		}
	}
	frac := float64(n) / float64(len(cores))
	if frac < 0.4 || frac > 0.9 {
		t.Errorf("fraction of VMs <= 4 cores = %.2f; median far from 4", frac)
	}
}

func TestCalibrationMemoryNarrowerThanCPU(t *testing.T) {
	tr := getTrace(t)
	var cpuR, memR float64
	var n int
	for _, vm := range tr.LongRunning() {
		cpuR += vm.Runs.Series(resources.CPU, nil).UtilRange(5, 95)
		memR += vm.Runs.Series(resources.Memory, nil).UtilRange(5, 95)
		n++
	}
	if n == 0 {
		t.Fatal("no long-running VMs")
	}
	// Paper §2.3: CPU fluctuates much more than memory.
	if cpuR/float64(n) <= memR/float64(n) {
		t.Errorf("mean CPU range %.3f <= mean memory range %.3f", cpuR/float64(n), memR/float64(n))
	}
}

func TestUtilBounds(t *testing.T) {
	tr := getTrace(t)
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		for _, k := range resources.Kinds {
			for _, u := range vm.Runs.Series(k, nil) {
				if u < 0 || u > 1 {
					t.Fatalf("vm %d %v utilization %v outside [0,1]", vm.ID, k, u)
				}
			}
		}
	}
}

func TestVMAccessors(t *testing.T) {
	tr := getTrace(t)
	vm := &tr.VMs[0]
	if vm.Duration() != time.Duration(vm.DurationSamples())*5*time.Minute {
		t.Error("Duration inconsistent with DurationSamples")
	}
	if vm.AliveAt(vm.Start-1) || !vm.AliveAt(vm.Start) || vm.AliveAt(vm.End) {
		t.Error("AliveAt boundary conditions wrong")
	}
	if vm.UtilAt(resources.CPU, vm.Start-1) != 0 {
		t.Error("UtilAt outside lifetime must be 0")
	}
	d := vm.DemandAt(vm.Start)
	if !d.FitsIn(vm.Alloc) {
		t.Errorf("demand %v exceeds allocation %v", d, vm.Alloc)
	}
}

func TestResourceHours(t *testing.T) {
	vm := VM{Alloc: resources.NewVector(4, 16, 2, 128), Start: 0, End: timeseries.SamplesPerDay}
	if got := vm.ResourceHours(resources.CPU); got != 4*24 {
		t.Errorf("core-hours for a 4-core 1-day VM = %v, want 96", got)
	}
}

func TestWeekdayAt(t *testing.T) {
	tr := &Trace{Horizon: 3 * timeseries.SamplesPerDay, StartWeekday: time.Monday}
	if tr.WeekdayAt(0) != time.Monday {
		t.Error("day 0 weekday wrong")
	}
	if tr.WeekdayAt(timeseries.SamplesPerDay) != time.Tuesday {
		t.Error("day 1 weekday wrong")
	}
}

// TestInCluster: every VM is homed in one of the trace's clusters.
func TestInCluster(t *testing.T) {
	tr := getTrace(t)
	for i := range tr.VMs {
		if c := tr.VMs[i].Cluster; c < 0 || c >= tr.Clusters {
			t.Fatalf("vm %d homed in cluster %d of %d", tr.VMs[i].ID, c, tr.Clusters)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := capacityTrace(t, 20, 4)
	tr.VMs[0].End = tr.Horizon + 1
	if err := tr.Validate(); err == nil {
		t.Error("out-of-horizon VM must fail validation")
	}
	// Samples outside [0,1] cannot be run-encoded, which rounds them to
	// codes, so Load checks them on the float series it decodes.
	for _, bad := range []float64{1.5, -0.25, math.NaN()} {
		tr = capacityTrace(t, 20, 4)
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var d diskTrace
		if err := gob.NewDecoder(&buf).Decode(&d); err != nil {
			t.Fatal(err)
		}
		d.VMs[0].Util[resources.Memory][0] = bad
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(d); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("utilization %v must fail to load", bad)
		}
	}
	tr = capacityTrace(t, 20, 4)
	tr.VMs[0].Runs = tr.VMs[0].Runs.Prefix(tr.VMs[0].DurationSamples() - 1)
	if err := tr.Validate(); err == nil {
		t.Error("utilization shorter than the lifetime must fail validation")
	}
	tr = capacityTrace(t, 20, 4)
	tr.VMs[0].Config = 999
	if err := tr.Validate(); err == nil {
		t.Error("dangling config reference must fail validation")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	tr := capacityTrace(t, 20, 4)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.VMs) != len(tr.VMs) || got.Horizon != tr.Horizon {
		t.Fatal("roundtrip lost data")
	}
	if !reflect.DeepEqual(got.VMs, tr.VMs) {
		t.Fatal("roundtrip corrupted the VMs")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage input must fail")
	}
}

func TestDefaultConfigsShapes(t *testing.T) {
	cfgs := DefaultConfigs()
	if len(cfgs) != 28 {
		t.Fatalf("%d configs, want 28 (4 families x 7 sizes)", len(cfgs))
	}
	for _, c := range cfgs {
		if !c.Alloc.Positive() {
			t.Errorf("config %s has non-positive allocation", c.Name)
		}
		ratio := c.Alloc[resources.Memory] / c.Alloc[resources.CPU]
		if ratio < 2 || ratio > 16 {
			t.Errorf("config %s GB/core = %v outside [2,16]", c.Name, ratio)
		}
	}
}

func TestSubscriptionSimilarity(t *testing.T) {
	// VMs in the same subscription should have more similar CPU peaks than
	// random pairs (the Fig. 12 premise).
	tr := getTrace(t)
	bySub := map[int][]float64{}
	for _, vm := range tr.LongRunning() {
		bySub[vm.Subscription] = append(bySub[vm.Subscription], vm.Runs.Max(resources.CPU))
	}
	var withinSpread, n float64
	var all []float64
	for _, peaks := range bySub {
		all = append(all, peaks...)
		if len(peaks) < 2 {
			continue
		}
		min, max := peaks[0], peaks[0]
		for _, p := range peaks {
			if p < min {
				min = p
			}
			if p > max {
				max = p
			}
		}
		withinSpread += max - min
		n++
	}
	if n == 0 {
		t.Skip("no subscriptions with >= 2 long VMs at this scale")
	}
	globalMin, globalMax := all[0], all[0]
	for _, p := range all {
		if p < globalMin {
			globalMin = p
		}
		if p > globalMax {
			globalMax = p
		}
	}
	if withinSpread/n >= (globalMax - globalMin) {
		t.Errorf("within-subscription peak spread %.3f not smaller than global %.3f",
			withinSpread/n, globalMax-globalMin)
	}
}

func TestArchetypeActivityBounds(t *testing.T) {
	for _, a := range Archetypes {
		for h := 0.0; h < 24; h += 0.5 {
			act := a.activity(h)
			if act < 0 || act > 1 {
				t.Fatalf("%s activity(%v) = %v outside [0,1]", a.Name, h, act)
			}
		}
		// The peak hour should be (close to) the max activity.
		if a.activity(a.PeakHour) < 0.99 {
			t.Errorf("%s activity at peak hour = %v", a.Name, a.activity(a.PeakHour))
		}
	}
}

func TestGaussBumpWraps(t *testing.T) {
	// 23:00 and 1:00 are equidistant from a midnight peak.
	if d := gaussBump(23, 0, 2) - gaussBump(1, 0, 2); d > 1e-12 || d < -1e-12 {
		t.Errorf("24h wrapping broken: %v", d)
	}
}

func TestOfferingSubscriptionTypeStrings(t *testing.T) {
	if IaaS.String() != "IaaS" || PaaS.String() != "PaaS" {
		t.Error("offering strings wrong")
	}
	if Production.String() != "production" || Test.String() != "test" {
		t.Error("subscription type strings wrong")
	}
	if !strings.Contains(SubscriptionType(42).String(), "42") {
		t.Error("unknown subscription type string wrong")
	}
}
