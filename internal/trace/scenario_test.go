package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"testing"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/timeseries"
)

// miniSpec returns the named preset scaled down to test size.
func miniSpec(t *testing.T, name string) *scenario.Spec {
	t.Helper()
	sp, err := scenario.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	return sp.Scaled(300, 30)
}

func TestGenerateScenarioValid(t *testing.T) {
	for _, name := range scenario.PresetNames {
		t.Run(name, func(t *testing.T) {
			tr, err := GenerateScenario(miniSpec(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			// The arrival processes target the spec's VM budget on
			// average; the realized count should land near it.
			n := len(tr.VMs)
			if n < 150 || n > 600 {
				t.Errorf("%d VMs generated, want ~300", n)
			}
		})
	}
}

// TestGenerateScenarioDeterministic gob-serializes generations of the
// same spec at GOMAXPROCS 1 and 8 and requires byte identity — stronger
// than field spot checks, and exactly what the replay tooling relies on
// when loadgen and the simulator regenerate the trace separately, on
// hosts with different core counts.
func TestGenerateScenarioDeterministic(t *testing.T) {
	for _, name := range scenario.PresetNames {
		t.Run(name, func(t *testing.T) {
			var bufs [2]bytes.Buffer
			for i, procs := range []int{1, 8} {
				withProcs(procs, func() {
					tr, err := GenerateScenario(miniSpec(t, name))
					if err != nil {
						t.Fatal(err)
					}
					if err := tr.Save(&bufs[i]); err != nil {
						t.Fatal(err)
					}
				})
			}
			if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
				t.Fatal("same spec produced different trace bytes at GOMAXPROCS 1 and 8")
			}
		})
	}
}

// Gob numbers each type the first time a process encodes it, and the
// numbers are part of the bytes. Encoding a Trace before any test runs
// gives its types the same numbers in every run of this test binary, so
// the pinned hashes below do not depend on which tests ran first.
func init() { _ = (&Trace{}).Save(io.Discard) }

// TestTraceFingerprint pins the SHA-256 of two mini traces' Save bytes,
// so "synthesis is unchanged" is a check, not a claim. A change that
// means to alter generated traces updates these hashes in its own diff.
// Other architectures may fuse multiply-adds and round differently, so
// the pins hold on amd64 only.
func TestTraceFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are pinned on amd64, not %s", runtime.GOARCH)
	}
	for name, want := range map[string]string{
		"capacity":     "e315cf1af03cb120643dcd1f772e7a8497f6ecd5ca76a115327d46c0f13c8aa2",
		"sparse-churn": "376c2111913917f678b2f637042dd3b40e749a69017dfb2991537d960c24913e",
	} {
		tr, err := GenerateScenario(miniSpec(t, name))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
			t.Errorf("%s trace SHA-256 %s, pinned %s", name, got, want)
		}
	}
}

func TestGenerateScenarioRejectsInvalid(t *testing.T) {
	sp := miniSpec(t, "capacity")
	sp.Classes[0].Fraction = -1
	if _, err := GenerateScenario(sp); err == nil {
		t.Error("invalid spec must be rejected")
	}

	sp = miniSpec(t, "capacity")
	sp.Classes[0].Archetype = "no-such-archetype"
	if _, err := GenerateScenario(sp); err == nil {
		t.Error("unknown archetype must be rejected")
	}
}

func TestGenerateScenarioClusterPinning(t *testing.T) {
	// skewed-hot-cold pins the hot class (subscription range of class 0)
	// to clusters 0 and 1; there are no surges to re-home anyone.
	sp := miniSpec(t, "skewed-hot-cold")
	tr, err := GenerateScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := sp.SubscriptionRange(0)
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Subscription >= lo && vm.Subscription < hi && vm.Cluster > 1 {
			t.Fatalf("hot-class vm %d placed in cluster %d, want 0 or 1", vm.ID, vm.Cluster)
		}
	}
}

func TestGenerateScenarioSizeBias(t *testing.T) {
	// churn: class 0 ("ephemeral") is small, class 1 ("resident") is
	// large. Mean cores must reflect the bias.
	sp := miniSpec(t, "churn")
	tr, err := GenerateScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	var cores [2]float64
	var n [2]int
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		ci := sp.ClassOfSubscription(vm.Subscription)
		cores[ci] += vm.Cores()
		n[ci]++
	}
	if n[0] == 0 || n[1] == 0 {
		t.Fatal("a class generated no VMs")
	}
	small, large := cores[0]/float64(n[0]), cores[1]/float64(n[1])
	if small >= large {
		t.Errorf("small-class mean cores %.1f >= large-class %.1f", small, large)
	}
}

func TestGenerateScenarioWorkingSetCentersMemory(t *testing.T) {
	// skewed-hot-cold: hot VMs draw working sets in [0.6,0.9], cold in
	// [0.1,0.3]. Mean memory utilization must separate accordingly.
	sp := miniSpec(t, "skewed-hot-cold")
	tr, err := GenerateScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	var mem [2]float64
	var n [2]int
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.DurationSamples() < 12 {
			continue
		}
		ci := sp.ClassOfSubscription(vm.Subscription)
		mem[ci] += vm.Runs.Mean(resources.Memory)
		n[ci]++
	}
	if n[0] == 0 || n[1] == 0 {
		t.Fatal("a class generated no VMs")
	}
	hot, cold := mem[0]/float64(n[0]), mem[1]/float64(n[1])
	if hot < cold+0.15 {
		t.Errorf("hot mean memory %.2f not clearly above cold %.2f", hot, cold)
	}
}

// TestGenerateScenarioQuantizedSparsity pins the sparse-churn contract:
// with util-quantum set, every generated sample is a quantum multiple,
// and the per-VM change-point density collapses — the property the
// event-driven simulator core's visit advantage is built on. An
// unquantized preset (capacity) stays dense by comparison.
func TestGenerateScenarioQuantizedSparsity(t *testing.T) {
	density := func(name string) float64 {
		tr, err := GenerateScenario(miniSpec(t, name))
		if err != nil {
			t.Fatal(err)
		}
		changes, samples := 0, 0
		for i := range tr.VMs {
			vm := &tr.VMs[i]
			changes += vm.Runs.NumRuns() - 1
			samples += vm.DurationSamples()
		}
		if samples == 0 {
			t.Fatalf("%s: no samples", name)
		}
		return float64(changes) / float64(samples)
	}

	sp := miniSpec(t, "sparse-churn")
	q := sp.UtilQuantum
	if q <= 0 {
		t.Fatal("sparse-churn preset must set util-quantum")
	}
	tr, err := GenerateScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	qc := timeseries.ToCode(q)
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		for j := 0; j < vm.Runs.NumRuns(); j++ {
			for _, c := range vm.Runs.Code(j) {
				if c%qc != 0 && c != timeseries.CodeScale {
					t.Fatalf("vm %d code %d is not a multiple of quantum %v", vm.ID, c, q)
				}
			}
		}
	}

	sparse, dense := density("sparse-churn"), density("capacity")
	if sparse > 0.5 {
		t.Errorf("sparse-churn change density %.3f, want well under 0.5", sparse)
	}
	if dense < 0.9 {
		t.Errorf("capacity change density %.3f, want ~1 (fixture drift?)", dense)
	}
	if sparse > dense/5 {
		t.Errorf("sparse-churn density %.3f not ≥5x sparser than capacity %.3f", sparse, dense)
	}
}
