// Command coach-benchdiff gates CI on the committed forest-inference
// baseline: it parses `go test -bench` output for the
// BenchmarkPredictMatrix grid and compares every grid point against
// BENCH_predict.json. Exit status 1 means a regression (or a missing grid
// point).
//
// Usage:
//
//	go test -run=NONE -bench='^BenchmarkPredictMatrix$' . > out.txt
//	coach-benchdiff [-tolerance 0.25] [-baseline BENCH_predict.json] out.txt
//
// With no file argument the bench output is read from stdin. When a
// benchmark appears more than once (-count), its fastest repetition is
// the one compared.
//
// Each grid point measures the same rows under the row-at-a-time
// Predict (layout=walk, the reference) and the level-synchronous pass
// over the same forest nodes (layout=matrix, PredictMatrix, and
// layout=sweep, PredictSweep answering the same rows as one swept
// feature). Raw ns/op on shared CI runners is far too noisy to gate on,
// so the check is a ratio: matrix:walk and sweep:walk ns/row must not
// exceed the baseline ratio by more than the tolerance. Comparing the
// schedules on the same host in the same run cancels machine speed out
// of the gate, so it fires when the level-synchronous pass loses ground
// to the row-at-a-time reference.
//
// Baseline grid points whose names never appear in the bench output fail
// the gate too — a renamed or silently skipped benchmark would otherwise
// pass forever.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// variantSeg is the benchmark path segment naming the schedule;
// reference is the row-at-a-time schedule and alts the ones gated
// against it.
const (
	variantSeg = "layout="
	reference  = "walk"
)

var alts = []string{"matrix", "sweep"}

// sample is one (grid point, schedule) measurement.
type sample struct {
	NsPerOp  float64 `json:"ns_per_op"`
	NsPerRow float64 `json:"ns_per_row,omitempty"`
}

// gridPoint is one grid configuration measured under every schedule.
type gridPoint struct {
	Walk   *sample `json:"walk,omitempty"`
	Matrix *sample `json:"matrix,omitempty"`
	Sweep  *sample `json:"sweep,omitempty"`
}

func (p *gridPoint) slot(name string) **sample {
	switch name {
	case "walk":
		return &p.Walk
	case "matrix":
		return &p.Matrix
	case "sweep":
		return &p.Sweep
	}
	return nil
}

func (p *gridPoint) sample(name string) *sample {
	if s := p.slot(name); s != nil {
		return *s
	}
	return nil
}

// baseline mirrors BENCH_predict.json; its narrative description is not
// read.
type baseline struct {
	Benchmarks map[string]gridPoint `json:"benchmarks"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_predict.json", "committed baseline JSON")
	tolerance := flag.Float64("tolerance", 0.25, "allowed relative drift of each schedule's ns/row ratio to the walk")
	flag.Parse()

	bl, err := loadBaseline(*baselinePath)
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
	got, err := parseBench(in)
	if err != nil {
		fatal(err)
	}

	var failures []string
	for _, key := range sortedKeys(bl.Benchmarks) {
		have, ok := got[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: grid point missing from bench output", key))
			continue
		}
		failures = append(failures, checkPoint(key, bl.Benchmarks[key], have, *tolerance)...)
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("coach-benchdiff: %d grid points within %.0f%% of %s\n", len(bl.Benchmarks), 100**tolerance, *baselinePath)
}

// checkPoint compares one measured grid point against its baseline.
func checkPoint(key string, want, have gridPoint, tol float64) []string {
	var out []string
	for _, name := range append([]string{reference}, alts...) {
		if want.sample(name) != nil && have.sample(name) == nil {
			out = append(out, fmt.Sprintf("%s: %s%s missing from bench output", key, variantSeg, name))
		}
	}
	wb, hb := want.sample(reference), have.sample(reference)
	for _, alt := range alts {
		wa, ha := want.sample(alt), have.sample(alt)
		if wb != nil && wa != nil && hb != nil && ha != nil &&
			wb.NsPerRow > 0 && hb.NsPerRow > 0 {
			wantRatio := wa.NsPerRow / wb.NsPerRow
			haveRatio := ha.NsPerRow / hb.NsPerRow
			if haveRatio > wantRatio*(1+tol) {
				out = append(out, fmt.Sprintf("%s: %s:%s ns/row ratio %.2f vs baseline %.2f (the %s path lost ground to the %s reference)",
					key, alt, reference, haveRatio, wantRatio, alt, reference))
			}
		}
	}
	return out
}

// parseBench reads `go test -bench` output and folds the schedule
// sub-benchmarks of each grid point together. Keys match the baseline's:
// the benchmark name with the "Benchmark" prefix, the GOMAXPROCS "-N"
// suffix and the schedule path segment removed, e.g.
// "PredictMatrix/trees=40/depth=12/batch=64".
func parseBench(r io.Reader) (map[string]gridPoint, error) {
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
		key, variant, ok := splitVariant(name)
		if !ok {
			continue
		}
		s := sample{}
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
			}
		}
		p := out[key]
		slot := p.slot(variant)
		if slot == nil {
			continue
		}
		// Under -count the fastest repetition stands: a busy neighbour
		// only ever slows a repetition down.
		if *slot == nil || s.NsPerRow < (*slot).NsPerRow {
			*slot = &s
		}
		out[key] = p
	}
	return out, sc.Err()
}

// splitVariant removes the schedule path segment ("layout=X") from a
// benchmark name, returning the remaining key and the schedule.
func splitVariant(name string) (key, variant string, ok bool) {
	segs := strings.Split(name, "/")
	rest := segs[:0]
	for _, seg := range segs {
		if v, found := strings.CutPrefix(seg, variantSeg); found {
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
