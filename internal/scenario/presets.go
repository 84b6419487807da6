package scenario

import (
	"embed"
	"fmt"
	"os"
	"slices"
	"strings"
)

// PresetNames lists the shipped presets in canonical order: the two
// traffic shapes the experiments already exercised implicitly
// (capacity, skewed-hot-cold), the four that open new axes (bursty,
// diurnal, surge, churn), and the event-replay stressor whose
// population churns while utilization barely moves (sparse-churn).
// chaos, the failure-domain stressor, injects a deterministic crash
// schedule on top of a capacity-like mix. Each preset is the text of
// presets/<name>.spec, whose comments give its rationale.
var PresetNames = []string{"capacity", "skewed-hot-cold", "bursty", "diurnal", "surge", "churn", "sparse-churn", "chaos"}

//go:embed presets/*.spec
var presetFiles embed.FS

// Preset returns a fresh copy of the named preset spec, parsed from its
// embedded file.
func Preset(name string) (*Spec, error) {
	if !slices.Contains(PresetNames, name) {
		return nil, fmt.Errorf("scenario: unknown preset %q (have %s)", name, strings.Join(PresetNames, ", "))
	}
	text, err := presetFiles.ReadFile("presets/" + name + ".spec")
	if err != nil {
		return nil, err
	}
	return Parse(string(text))
}

// Load resolves a preset name or reads and parses a spec file. The
// loaded spec is validated.
func Load(nameOrPath string) (*Spec, error) {
	if slices.Contains(PresetNames, nameOrPath) {
		return Preset(nameOrPath)
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		names := strings.Join(PresetNames, ", ")
		return nil, fmt.Errorf("scenario: %q is neither a preset (%s) nor a readable spec file: %w",
			nameOrPath, names, err)
	}
	sp, err := Parse(string(data))
	if err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", nameOrPath, err)
	}
	return sp, nil
}
