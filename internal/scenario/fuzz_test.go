package scenario

import (
	"io/fs"
	"testing"
)

// FuzzParseSpec pins the parser's safety properties on arbitrary input:
// Parse never panics, and neither does Validate on a spec Parse accepted.
// The seeds are every embedded preset file and the handwritten spec.
func FuzzParseSpec(f *testing.F) {
	paths, err := fs.Glob(presetFiles, "presets/*.spec")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no embedded preset files: %v", err)
	}
	for _, p := range paths {
		text, err := presetFiles.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Add(handwrittenSpec)
	f.Add("")
	f.Add("# comment only\n")
	f.Add("name: x\ndays: 7\n")
	f.Add("classes:\n  - name: a\n    arrival: gamma cv=2\n")
	f.Add("surges:\n  - kind: s\n    day: 1.5\n    cluster: 3\n")
	f.Add("seasonality:\n  diurnal-amp: 0.5\n")
	f.Add("days: nope\nclasses:\n\t- name: tab\n")
	f.Fuzz(func(t *testing.T, text string) {
		sp, err := Parse(text)
		if err != nil {
			return
		}
		_ = sp.Validate()
	})
}
