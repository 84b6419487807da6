package trace

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/timeseries"
)

// refChangePoints is the change-point list the replay once computed from
// a VM's per-kind series: the offsets i in [1, n) at which any kind's
// sample differs from the previous one. It is the reference the run
// offsets are checked against.
func refChangePoints(util [resources.NumKinds]timeseries.Series) []int32 {
	var out []int32
	for i := 1; i < len(util[0]); i++ {
		for _, k := range resources.Kinds {
			if util[k][i] != util[k][i-1] {
				out = append(out, int32(i))
				break
			}
		}
	}
	return out
}

func TestRuns(t *testing.T) {
	zeros := make(timeseries.Series, 6)
	// CPU changes at offsets 2 and 4; memory changes at offsets 2 and 5.
	r := timeseries.NewRuns([resources.NumKinds]timeseries.Series{
		{0.3, 0.3, 0.5, 0.5, 0.2, 0.2}, {0.1, 0.1, 0.4, 0.4, 0.4, 0.6}, zeros, zeros})
	if got, want := r.Offsets(), []int32{0, 2, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("offsets %v, want %v", got, want)
	}
	vm := &VM{Start: 10, End: 16, Alloc: resources.NewVector(2, 8, 1, 64), Runs: r}
	if got := vm.UtilAt(resources.Memory, 14); got != 0.4 {
		t.Errorf("UtilAt(memory, 14) = %v, want 0.4", got)
	}
	if got := vm.DemandAt(16); !got.IsZero() {
		t.Errorf("DemandAt past the lifetime = %v, want zero", got)
	}

	flat := timeseries.NewRuns([resources.NumKinds]timeseries.Series{{0.5, 0.5, 0.5}, zeros[:3], zeros[:3], zeros[:3]})
	if got, want := flat.Offsets(), []int32{0}; !reflect.DeepEqual(got, want) || flat.NumRuns() != 1 {
		t.Errorf("flat series offsets %v, want %v", got, want)
	}

	dense := timeseries.NewRuns([resources.NumKinds]timeseries.Series{zeros[:3], zeros[:3], zeros[:3], {0.1, 0.2, 0.1}})
	if dense.Offsets() != nil || dense.NumRuns() != 3 {
		t.Errorf("every sample its own run: offsets %v, %d runs; want nil, 3", dense.Offsets(), dense.NumRuns())
	}
}

// TestRunsMatchSamples checks every preset at mini scale, VM by VM: the
// run offsets are the reference change points plus offset 0, they are
// nil exactly when every sample is its own run, and expanding the runs
// gives back the samples the generator synthesized, each rounded to its
// nearest code, bit for bit.
func TestRunsMatchSamples(t *testing.T) {
	check := func(t *testing.T, vm *VM, raw [resources.NumKinds]timeseries.Series) {
		t.Helper()
		var util [resources.NumKinds]timeseries.Series
		for k, s := range raw {
			util[k] = make(timeseries.Series, len(s))
			for i, x := range s {
				util[k][i] = math.Round(x*timeseries.CodeScale) / timeseries.CodeScale
			}
		}
		r := vm.Runs
		if r.Len() != len(util[0]) {
			t.Fatalf("vm %d: %d samples in runs, generator made %d", vm.ID, r.Len(), len(util[0]))
		}
		cps := refChangePoints(util)
		if dense := len(cps) == r.Len()-1; dense != (r.Offsets() == nil) {
			t.Fatalf("vm %d: %d runs for %d samples, offsets nil = %v", vm.ID, r.NumRuns(), r.Len(), r.Offsets() == nil)
		}
		if r.Offsets() != nil && !reflect.DeepEqual(r.Offsets(), append([]int32{0}, cps...)) {
			t.Fatalf("vm %d: offsets %v, change points %v", vm.ID, r.Offsets(), cps)
		}
		for _, k := range resources.Kinds {
			for i, x := range r.Series(k, nil) {
				if math.Float64bits(x) != math.Float64bits(util[k][i]) {
					t.Fatalf("vm %d %v sample %d: runs expand to %v, generator made %v", vm.ID, k, i, x, util[k][i])
				}
			}
		}
	}
	var util [resources.NumKinds]timeseries.Series
	for _, name := range scenario.PresetNames {
		t.Run(name, func(t *testing.T) {
			sp := miniSpec(t, name)
			tr, err := GenerateScenario(sp)
			if err != nil {
				t.Fatal(err)
			}
			for id := range tr.VMs {
				vm := &tr.VMs[id]
				again := generateScenarioVM(sp, tr, id, sp.ClassOfSubscription(vm.Subscription), vm.Start, vmRand(sp.Seed, id), &util)
				if !reflect.DeepEqual(again, *vm) {
					t.Fatalf("vm %d: regenerated record differs", id)
				}
				check(t, vm, util)
			}
		})
	}
}

// TestUtilAtMatchesRuns pins UtilAt and DemandAt to the expanded series
// at every sample of a sample of generated VMs, and to zero outside each
// lifetime.
func TestUtilAtMatchesRuns(t *testing.T) {
	tr, err := GenerateScenario(miniSpec(t, "sparse-churn"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tr.VMs); i += 7 {
		vm := &tr.VMs[i]
		var series [resources.NumKinds]timeseries.Series
		for _, k := range resources.Kinds {
			series[k] = vm.Runs.Series(k, nil)
		}
		for t0 := vm.Start - 1; t0 <= vm.End; t0++ {
			d := vm.DemandAt(t0)
			for _, k := range resources.Kinds {
				want := 0.0
				if vm.AliveAt(t0) {
					want = series[k][t0-vm.Start]
				}
				if got := vm.UtilAt(k, t0); got != want || d[k] != vm.Alloc[k]*want {
					t.Fatalf("vm %d %v at %d: UtilAt %v, DemandAt %v, series %v", vm.ID, k, t0, got, d[k], want)
				}
			}
		}
	}
}

// TestSaveLoadCodes holds a Save → Load round trip to the codes: Save
// writes each code's fraction and Load rounds it back to the same code.
// The mini presets cover the generators; an extra VM walks every code
// from 0 to CodeScale in each kind.
func TestSaveLoadCodes(t *testing.T) {
	for _, name := range []string{"capacity", "sparse-churn"} {
		tr, err := GenerateScenario(miniSpec(t, name))
		if err != nil {
			t.Fatal(err)
		}
		var util [resources.NumKinds]timeseries.Series
		for k := range util {
			for c := 0; c <= timeseries.CodeScale; c++ {
				util[k] = append(util[k], timeseries.Frac(uint16((c+k*2500)%(timeseries.CodeScale+1))))
			}
		}
		n := len(util[0])
		tr.Horizon = max(tr.Horizon, n)
		tr.VMs = append(tr.VMs, VM{ID: len(tr.VMs), Alloc: tr.Configs[0].Alloc, End: n, Runs: timeseries.NewRuns(util)})
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range tr.VMs {
			a, b := &tr.VMs[i].Runs, &got.VMs[i].Runs
			if a.NumRuns() != b.NumRuns() || !reflect.DeepEqual(a.Offsets(), b.Offsets()) {
				t.Fatalf("%s vm %d: %d runs at %v, loaded %d at %v", name, i, a.NumRuns(), a.Offsets(), b.NumRuns(), b.Offsets())
			}
			for j := 0; j < a.NumRuns(); j++ {
				if a.Code(j) != b.Code(j) {
					t.Fatalf("%s vm %d run %d: codes %v, loaded %v", name, i, j, a.Code(j), b.Code(j))
				}
			}
		}
		if last := &got.VMs[len(got.VMs)-1].Runs; last.NumRuns() != n {
			t.Fatalf("%s: the every-code VM loaded as %d runs, want %d", name, last.NumRuns(), n)
		}
	}
}

// FuzzTraceLoad feeds arbitrary bytes to Load, which reads outside input
// and rebuilds runs from it. It must never panic, and a trace it accepts
// must Save to bytes Load accepts again and that a second round trip
// reproduces exactly.
func FuzzTraceLoad(f *testing.F) {
	for _, name := range []string{"capacity", "sparse-churn"} {
		sp, err := scenario.Preset(name)
		if err != nil {
			f.Fatal(err)
		}
		tr, err := GenerateScenario(sp.Scaled(8, 1))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
		for _, at := range []int{len(b) / 3, len(b) - 9} {
			m := bytes.Clone(b)
			m[at] ^= 0x40
			f.Add(m)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := tr.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Load rejects what Save wrote for a trace it accepted: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("a second round trip changed the bytes")
		}
	})
}
