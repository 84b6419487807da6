// Command coach-benchdiff gates CI on a committed benchmark-grid
// baseline: it parses `go test -bench` output for one of the repo's
// variant benchmark grids and compares every grid point against the
// matching BENCH_*.json file. Exit status 1 means a regression (or a
// missing grid point).
//
// Usage:
//
//	go test -run=NONE -bench='^BenchmarkSimCore$' -benchtime=3x . > out.txt
//	coach-benchdiff -grid simcore [-tolerance 0.25] out.txt
//
//	go test -run=NONE -bench='^BenchmarkPredictMatrix$' . > out.txt
//	coach-benchdiff -grid predict [-tolerance 0.25] out.txt
//
// With no file argument the bench output is read from stdin. When a
// benchmark appears more than once (-count), its fastest repetition is
// the one compared.
//
// Each grid measures the same work under a reference and its optimized
// variants — simcore runs the dense reference replay loop against the
// event-driven core, predict runs the row-at-a-time Predict against the
// level-synchronous pass over the same forest nodes (PredictMatrix, and
// PredictSweep answering the same rows as one swept feature) — and the
// checks are chosen to be meaningful across machines (raw ns/op on shared
// CI runners is far too noisy to gate on):
//
//   - visits/op, where the grid reports it (simcore), must match the
//     baseline within the tolerance for each variant. The count is
//     deterministic, so any drift is a behavioural change: the event
//     core visiting VMs it used to skip is exactly the regression this
//     gate exists to catch.
//   - the variant ratio (event:dense ns/op for simcore, matrix:walk and
//     sweep:walk ns/row for predict) must not exceed its baseline ratio by more
//     than the tolerance. Comparing the two variants on the same host in
//     the same run cancels machine speed out of the gate; for predict
//     this is the batched-inference speedup recorded in
//     BENCH_predict.json, so the gate fires when the level-synchronous
//     pass loses ground to the row-at-a-time reference.
//
// Baseline grid points whose names never appear in the bench output fail
// the gate too — a renamed or silently skipped benchmark would otherwise
// pass forever. Entries under "full_scale" in the baseline are recorded
// for documentation (the opt-in COACH_BENCH_FULL acceptance run) and are
// compared only when present in the output.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// engineSample is one (grid point, engine) measurement.
type engineSample struct {
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerRow    float64 `json:"ns_per_row,omitempty"`
	VisitsPerOp float64 `json:"visits_per_op,omitempty"`
}

// gridPoint is one grid configuration measured under every variant. The
// simcore grid fills dense/event, the predict grid walk/matrix/sweep.
type gridPoint struct {
	Dense  *engineSample `json:"dense,omitempty"`
	Event  *engineSample `json:"event,omitempty"`
	Walk   *engineSample `json:"walk,omitempty"`
	Matrix *engineSample `json:"matrix,omitempty"`
	Sweep  *engineSample `json:"sweep,omitempty"`
}

func (p *gridPoint) sample(name string) *engineSample {
	switch name {
	case "dense":
		return p.Dense
	case "event":
		return p.Event
	case "walk":
		return p.Walk
	case "matrix":
		return p.Matrix
	case "sweep":
		return p.Sweep
	}
	return nil
}

func (p *gridPoint) setSample(name string, s *engineSample) {
	switch name {
	case "dense":
		p.Dense = s
	case "event":
		p.Event = s
	case "walk":
		p.Walk = s
	case "matrix":
		p.Matrix = s
	case "sweep":
		p.Sweep = s
	}
}

// gridSpec describes one gated benchmark grid: which path segment names
// the variant, which variant is the reference and which the optimized
// paths, and which reported metric feeds the ratio check.
type gridSpec struct {
	baseline   string   // default -baseline
	seg        string   // variant path-segment prefix, e.g. "engine="
	base       string   // reference variant name
	alts       []string // optimized variant names, each gated against base
	metricName string   // reported metric feeding the ratio check
	metric     func(*engineSample) float64
}

var grids = map[string]gridSpec{
	"simcore": {
		baseline: "BENCH_simcore.json", seg: "engine=",
		base: "dense", alts: []string{"event"},
		metricName: "ns/op", metric: func(s *engineSample) float64 { return s.NsPerOp },
	},
	"predict": {
		baseline: "BENCH_predict.json", seg: "layout=",
		base: "walk", alts: []string{"matrix", "sweep"},
		metricName: "ns/row", metric: func(s *engineSample) float64 { return s.NsPerRow },
	},
}

// baseline mirrors BENCH_simcore.json. Narrative fields (description,
// analysis) are carried so the file stays self-documenting; only the two
// grids matter here.
type baseline struct {
	Description string               `json:"description"`
	Benchmarks  map[string]gridPoint `json:"benchmarks"`
	FullScale   map[string]gridPoint `json:"full_scale"`
	Analysis    json.RawMessage      `json:"analysis"`
}

func main() {
	gridName := flag.String("grid", "simcore", "benchmark grid to gate: simcore or predict")
	baselinePath := flag.String("baseline", "", "committed baseline JSON (defaults per -grid)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed relative drift for visits/op and for the variant ratio")
	flag.Parse()

	spec, ok := grids[*gridName]
	if !ok {
		fatal(fmt.Errorf("unknown -grid %q (want simcore or predict)", *gridName))
	}
	if *baselinePath == "" {
		*baselinePath = spec.baseline
	}

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in, spec)
	if err != nil {
		fatal(err)
	}

	var failures []string
	checked := 0
	for _, grid := range []struct {
		name     string
		points   map[string]gridPoint
		required bool
	}{
		{"benchmarks", base.Benchmarks, true},
		{"full_scale", base.FullScale, false},
	} {
		for _, key := range sortedKeys(grid.points) {
			want := grid.points[key]
			have, ok := got[key]
			if !ok {
				if grid.required {
					failures = append(failures, fmt.Sprintf("%s: grid point missing from bench output", key))
				}
				continue
			}
			checked++
			failures = append(failures, checkPoint(key, want, have, *tolerance, spec)...)
		}
	}
	if checked == 0 {
		failures = append(failures, fmt.Sprintf("no baseline grid point found in bench output (did the %s grid run?)", *gridName))
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("coach-benchdiff: %d grid points within %.0f%% of %s\n", checked, 100**tolerance, *baselinePath)
}

// checkPoint compares one measured grid point against its baseline.
func checkPoint(key string, want, have gridPoint, tol float64, spec gridSpec) []string {
	var out []string
	for _, name := range append([]string{spec.base}, spec.alts...) {
		w, h := want.sample(name), have.sample(name)
		if w == nil {
			continue
		}
		if h == nil {
			out = append(out, fmt.Sprintf("%s: %s%s missing from bench output", key, spec.seg, name))
			continue
		}
		if drift := relDrift(h.VisitsPerOp, w.VisitsPerOp); drift > tol {
			out = append(out, fmt.Sprintf("%s %s%s: visits/op %.0f vs baseline %.0f (%+.0f%%)",
				key, spec.seg, name, h.VisitsPerOp, w.VisitsPerOp, 100*(h.VisitsPerOp/w.VisitsPerOp-1)))
		}
	}
	wb, hb := want.sample(spec.base), have.sample(spec.base)
	for _, alt := range spec.alts {
		wa, ha := want.sample(alt), have.sample(alt)
		if wb != nil && wa != nil && hb != nil && ha != nil &&
			spec.metric(wb) > 0 && spec.metric(hb) > 0 {
			wantRatio := spec.metric(wa) / spec.metric(wb)
			haveRatio := spec.metric(ha) / spec.metric(hb)
			if haveRatio > wantRatio*(1+tol) {
				out = append(out, fmt.Sprintf("%s: %s:%s %s ratio %.2f vs baseline %.2f (the %s path lost ground to the %s reference)",
					key, alt, spec.base, spec.metricName, haveRatio, wantRatio, alt, spec.base))
			}
		}
	}
	return out
}

// relDrift is |have-want|/want, treating a zero baseline as only
// matching zero.
func relDrift(have, want float64) float64 {
	if want == 0 {
		if have == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(have-want) / want
}

// parseBench reads `go test -bench` output and folds the two variant
// sub-benchmarks of each grid point together. Keys match the baseline's:
// the benchmark name with the "Benchmark" prefix, the GOMAXPROCS "-N"
// suffix and the variant path segment removed, e.g.
// "SimCore/sparse-churn/vms=1000/days=7/workers=1",
// or "PredictMatrix/trees=40/depth=12/batch=64".
func parseBench(r io.Reader, spec gridSpec) (map[string]gridPoint, error) {
	out := make(map[string]gridPoint)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > strings.LastIndex(name, "/") {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		key, variant, ok := splitVariant(name, spec.seg)
		if !ok {
			continue
		}
		s := engineSample{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.NsPerOp = v
			case "ns/row":
				s.NsPerRow = v
			case "visits/op":
				s.VisitsPerOp = v
			}
		}
		if variant != spec.base && !slices.Contains(spec.alts, variant) {
			continue
		}
		p := out[key]
		// Under -count the fastest repetition stands: a busy neighbour
		// only ever slows a repetition down.
		if prev := p.sample(variant); prev == nil || spec.metric(&s) < spec.metric(prev) {
			p.setSample(variant, &s)
		}
		out[key] = p
	}
	return out, sc.Err()
}

// splitVariant removes the variant path segment (e.g. "engine=X",
// "layout=X") from a benchmark name, returning the remaining key and the
// variant.
func splitVariant(name, segPrefix string) (key, variant string, ok bool) {
	segs := strings.Split(name, "/")
	rest := segs[:0]
	for _, seg := range segs {
		if v, found := strings.CutPrefix(seg, segPrefix); found {
			variant = v
			continue
		}
		rest = append(rest, seg)
	}
	if variant == "" {
		return "", "", false
	}
	return strings.Join(rest, "/"), variant, true
}

func loadBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in baseline", path)
	}
	return &b, nil
}

func sortedKeys(m map[string]gridPoint) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coach-benchdiff:", err)
	os.Exit(1)
}
