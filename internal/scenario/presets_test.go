package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestPresetsValid: every shipped preset must pass Validate — the
// contract every consumer (trace, sim, loadgen) relies on.
func TestPresetsValid(t *testing.T) {
	for _, name := range PresetNames {
		sp, err := Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sp.Name != name {
			t.Errorf("preset %q has Name %q", name, sp.Name)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestPresetNamesCoverMap: the canonical name list and the preset map
// must agree exactly, so no preset is unreachable or phantom.
func TestPresetNamesCoverMap(t *testing.T) {
	var want []string
	for name := range presets {
		want = append(want, name)
	}
	sort.Strings(want)
	got := append([]string(nil), PresetNames...)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PresetNames %v != preset map keys %v", got, want)
	}
}

// TestPresetText: testdata/<name>.spec is each preset's canonical text,
// and Parse must reproduce the preset from it exactly (float for float),
// so a spec written out by hand means what the preset means.
func TestPresetText(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.spec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(PresetNames) {
		t.Errorf("testdata holds %d spec files for %d presets", len(files), len(PresetNames))
	}
	for _, name := range PresetNames {
		text, err := os.ReadFile(filepath.Join("testdata", name+".spec"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Parse(string(text))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ := Preset(name)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parsed text differs from the preset:\nparsed: %+v\npreset: %+v", name, got, want)
		}
	}
}

func TestPresetUnknown(t *testing.T) {
	_, err := Preset("no-such-preset")
	if err == nil {
		t.Fatal("unknown preset accepted")
	}
	if !strings.Contains(err.Error(), "capacity") {
		t.Errorf("error %q does not list the known presets", err)
	}
}

// TestPresetReturnsFreshCopy: callers may mutate the returned spec
// without corrupting later lookups.
func TestPresetReturnsFreshCopy(t *testing.T) {
	a, _ := Preset("capacity")
	a.Classes[0].Fraction = 0.99
	a.VMs = 1
	b, _ := Preset("capacity")
	if b.Classes[0].Fraction == 0.99 || b.VMs == 1 {
		t.Error("Preset returned a shared spec")
	}
}

func TestLoadPresetName(t *testing.T) {
	sp, err := Load("bursty")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Preset("bursty")
	if !reflect.DeepEqual(sp, want) {
		t.Error("Load(name) differs from Preset(name)")
	}
}

func TestLoadSpecFile(t *testing.T) {
	want, _ := Preset("surge")
	sp, err := Load(filepath.Join("testdata", "surge.spec"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, want) {
		t.Error("Load(file) differs from the preset")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("/no/such/path.txt"); err == nil {
		t.Error("unreadable path accepted")
	} else if !strings.Contains(err.Error(), "preset") {
		t.Errorf("error %q does not mention presets", err)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("days soon\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("unparseable file accepted")
	}
	// Parses but fails Validate: no classes.
	invalid := filepath.Join(dir, "invalid.txt")
	if err := os.WriteFile(invalid, []byte("days: 7\nvms: 10\nclusters: 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(invalid); err == nil {
		t.Error("invalid spec file accepted")
	}
}
