// Command bench is the repository's one end-to-end benchmark: four named
// workloads over the admission service (internal/serve) and the fleet
// replay (internal/sim), each measured end to end with tracing off and,
// in a second pass, broken down by layer from outside. README.md has the
// metrics, the workloads and how to read the output.
//
// Usage:
//
//	go run ./bench                       both passes of all four workloads, writes bench/out/results.json
//	go run ./bench -workload sim-fleet   both passes of one workload
//	go run ./bench -aa                   the untraced suite twice, compared against the bounds
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                     one pass of one workload in this process; the last line of
//	                                     standard output is the result object (BENCHMARK.json's contract)
//
// Every run of a workload is its own process of this binary, one after
// another, at the default GOMAXPROCS; all load comes from goroutines of
// that process. Any failed operation or violated check makes the exit
// code non-zero.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
)

func main() {
	workloadFlag := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 0, "replaces scenario.Spec.Seed (0 = the preset's own seed)")
	seconds := flag.Int("seconds", 20, "how long one pass repeats its measured region")
	traceFlag := flag.String("trace", "", "0 or 1: run one pass of -workload in this process and print its result line")
	aa := flag.Bool("aa", false, "run the untraced suite twice and compare the two against the bounds")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for results.json, run files and span files")
	flag.Parse()

	if err := dispatch(*workloadFlag, *seed, *seconds, *traceFlag, *aa, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("failed operations or violated checks, see above")

func dispatch(name string, seed int64, seconds int, trace string, aa bool, outDir string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d must be positive", seconds)
	}
	selected := workloads
	if name != "" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	switch {
	case trace != "":
		if name == "" || aa {
			return errors.New("-trace runs one pass of one workload: it needs -workload and excludes -aa")
		}
		traced, err := strconv.ParseBool(trace)
		if err != nil {
			return fmt.Errorf("-trace %q: want 0 or 1", trace)
		}
		return onePass(&selected[0], seed, seconds, traced, outDir)
	case aa:
		return runAA(selected, seed, seconds, outDir)
	}
	return runSuite(selected, seed, seconds, outDir)
}

func runFile(outDir, workload string, traced bool) string {
	pass := "e2e"
	if traced {
		pass = "layers"
	}
	return filepath.Join(outDir, workload+"."+pass+".json")
}

// onePass runs one pass in this process, prints every metric by name and
// unit, writes the run file and ends standard output with the result
// line.
func onePass(w *workload, seed int64, seconds int, traced bool, outDir string) error {
	var out *runOutput
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		out, err = runTraced(w, seed, seconds, filepath.Join(outDir, w.Name+".trace.json"))
	} else {
		out, err = runEndToEnd(w, seed, seconds)
	}
	if err != nil {
		return err
	}
	for _, v := range out.Violations {
		fmt.Println("FAILED:", v)
	}
	for _, d := range defs {
		if mv, ok := out.Metrics[d.Name]; ok {
			fmt.Printf("%-34s %14.6g %s\n", d.Name, mv.Value, mv.Unit)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(runFile(outDir, w.Name, traced), data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(resultLine(out))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errIncorrect
	}
	return nil
}

// resultLine is the object the contract wants on the last line of
// standard output: exactly these four keys.
func resultLine(out *runOutput) any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, out.Metrics}
}

// child runs one pass of one workload in a fresh process of this binary
// and reads back its run file. The child's output is passed through,
// except the result line.
func child(w *workload, seed int64, seconds int, traced bool, outDir string) (*runOutput, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := runFile(outDir, w.Name, traced)
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds),
		"-trace", strconv.Itoa(btoi(traced)), "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println("   ", l)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, runErr)
		}
		return nil, err
	}
	var out runOutput
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &out, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// workloadResult is one workload's entry in results.json.
type workloadResult struct {
	Name     string     `json:"name"`
	Why      string     `json:"why"`
	Loop     string     `json:"loop"`
	EndToEnd *runOutput `json:"end_to_end"`
	Layers   *runOutput `json:"per_layer,omitempty"`
}

type results struct {
	Provenance provenance       `json:"provenance"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Workloads  []workloadResult `json:"workloads"`
}

func writeResults(outDir string, res *results) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "results.json"), data, 0o644)
}

// runSuite runs both passes of every selected workload, one child
// process at a time, and writes results.json.
func runSuite(selected []workload, seed int64, seconds int, outDir string) error {
	res := &results{Provenance: readProvenance(), Seed: seed, Seconds: seconds}
	correct := true
	for i := range selected {
		w := &selected[i]
		wr := workloadResult{Name: w.Name, Why: w.Why, Loop: w.Loop}
		for _, traced := range []bool{false, true} {
			fmt.Printf("== %s, tracing %s\n", w.Name, map[bool]string{false: "off: end-to-end metrics", true: "on: per-layer metrics"}[traced])
			out, err := child(w, seed, seconds, traced, outDir)
			if err != nil {
				return err
			}
			correct = correct && out.Correct
			if traced {
				wr.Layers = out
			} else {
				wr.EndToEnd = out
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if err := writeResults(outDir, res); err != nil {
		return err
	}
	fmt.Println("wrote", filepath.Join(outDir, "results.json"))
	if !correct {
		return errIncorrect
	}
	return nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs the untraced suite twice on the same code and seed. Every
// end-to-end metric of the second set must be within its bound of the
// first in both directions, and a sim workload's ledger must repeat
// exactly.
func runAA(selected []workload, seed int64, seconds int, outDir string) error {
	sets := make([][]*runOutput, 2)
	for s := range sets {
		for i := range selected {
			fmt.Printf("== A/A set %d: %s\n", s+1, selected[i].Name)
			out, err := child(&selected[i], seed, seconds, false, outDir)
			if err != nil {
				return err
			}
			sets[s] = append(sets[s], out)
		}
	}
	ok := true
	fmt.Printf("\n%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i := range selected {
		a, b := sets[0][i], sets[1][i]
		ok = ok && a.Correct && b.Correct
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Max(worsening(d, va, vb), worsening(d, vb, va))
			verdict := ""
			if diff > d.Bound {
				verdict, ok = "  OUTSIDE", false
			}
			fmt.Printf("%-14s %-16s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", selected[i].Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
		if selected[i].primary == driveSim && !reflect.DeepEqual(a.Ledger, b.Ledger) {
			fmt.Printf("%-14s ledger differs between the two sets\n", selected[i].Name)
			ok = false
		}
	}
	if !ok {
		return errors.New("A/A: the two sets disagree beyond the bounds, or a run was incorrect")
	}
	fmt.Println("A/A: every pair within its bound")
	return nil
}
