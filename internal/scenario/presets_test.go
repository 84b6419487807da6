package scenario

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"slices"
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

// TestPresetFilesAreNames: the embedded presets/*.spec files and
// PresetNames must name the same set, so no file is unreachable and no
// name is phantom.
func TestPresetFilesAreNames(t *testing.T) {
	paths, err := fs.Glob(presetFiles, "presets/*.spec")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]bool{}
	for _, p := range paths {
		files[strings.TrimSuffix(path.Base(p), ".spec")] = true
	}
	for name := range files {
		if !slices.Contains(PresetNames, name) {
			t.Errorf("presets/%s.spec is not in PresetNames", name)
		}
	}
	for _, name := range PresetNames {
		if !files[name] {
			t.Errorf("preset %q has no presets/%s.spec", name, name)
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
	sp, err := Load(filepath.Join("presets", "surge.spec"))
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
