package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// BENCHMARK.json and the registries in metrics.go and workloads.go name
// the same things, in the same order, with the same units, directions
// and bounds.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, bench has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q / bench %q (or their reasons differ)", i, bf.Workloads[i].Name, w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, bench has %d", len(bf.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Bound == nil || got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || *got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, bench %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, bench has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, bench %+v", i, got, d)
		}
	}
}

// The contract's limits on names, units and sizes; a file outside them
// is refused before a single run.
func TestBenchmarkFileWithinContract(t *testing.T) {
	bf := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", n, better)
		}
	}
	for _, w := range bf.Workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better)
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(bf.EndToEnd), len(bf.PerLayer))
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v", bf.Paths)
	}
}

// The result line has exactly the four keys, and each pass reports
// exactly its family of metrics with the registered units.
func TestResultLineSchema(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		r := newRun(&workloads[0], 1, 10, false)
		for i, d := range defs {
			r.metrics[d.Name] = float64(i) + 0.5
		}
		r.out.Attempted = 7
		line, err := json.Marshal(resultLine(r.finish(defs)))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Fatalf("result line has keys %v", got)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if string(got["correct"]) != "true" || string(got["attempted"]) != "7" || string(got["failed"]) != "0" || len(metrics) != len(defs) {
			t.Fatalf("result line %s", line)
		}
		for _, d := range defs {
			if metrics[d.Name].Unit != d.Unit {
				t.Errorf("%s reported in %q, registered in %q", d.Name, metrics[d.Name].Unit, d.Unit)
			}
		}
	}

	r := newRun(&workloads[0], 1, 10, false)
	r.violate("a check failed")
	if out := r.finish(nil); out.Correct || out.Failed != 1 || out.Attempted != 1 {
		t.Errorf("a violated check left the run correct: %+v", out)
	}
}

// bench/ must not lean on anything ROADMAP items 2-3 plan to delete, and
// must never pick a batching or engine option.
func TestSurfaceAvoidsDoomedNames(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	doomed := regexp.MustCompile(`\.PredictBatch\(|CandidatesInto|ScoreRowInto|PickPlacement|AdmitBatch\.Disabled|AdmitBatch\s*=|\.Batch\s*=|trace\.Generate\(|EngineDense|EngineEvent|\.Engine\s*=|BatchConfig`)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if loc := doomed.FindIndex(src); loc != nil {
			t.Errorf("%s uses %q", f, src[loc[0]:loc[1]])
		}
	}
}
