package main

import (
	"math"
	"sort"
)

// metricDef is one named metric. BENCHMARK.json carries the same
// name/unit/better/bound for every entry (results_test.go compares the
// two), so the names printed here are the names a later PR is held to.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd is what a user of the system sees. Every workload reports
// every metric; README.md says what each means per workload family. The
// two time metrics are those of the run's best repetition (run.go).
var endToEnd = []metricDef{
	// Trace generation + fault compile + fleet + model training (serve:
	// serve.New+Warm). Median of three set-ups, excluded from the rest.
	{"setup_s", "s", "lower", 0.25},
	// serve-storm: completed requests per wall second. serve-replay: the
	// same over all repetitions. sim-*: VM arrivals replayed per wall
	// second (Result.Requested / replay time).
	{"ops_per_s", "1/s", "higher", 0.25},
	// serve-*: /v1/admit latency median, in serve-replay from the instant
	// the request was due. sim-*: wall time of one sim.Run.
	{"latency_ms", "ms", "lower", 0.25},
	// serve-*: admitted / admit requests. sim-*: Result.PlacedFrac(), the
	// paper's capacity metric.
	{"placed_frac", "ratio", "higher", 0.10},
	// VmHWM of the benchmark process at exit, set-ups included.
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer is measured in the traced pass, from outside, by timing calls
// into the public functions listed in surface.go on this workload's
// inputs. No bounds: these explain an end-to-end number, they do not
// gate.
var perLayer = []metricDef{
	{Name: "trace.generate_s", Unit: "s", Better: "lower"},
	{Name: "fault.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "predict.train_s", Unit: "s", Better: "lower"},
	{Name: "predict.model_mb", Unit: "MB", Better: "lower"},
	{Name: "predict.single_us_per_vm", Unit: "us", Better: "lower"},
	{Name: "predict.batch64_us_per_vm", Unit: "us", Better: "lower"},
	{Name: "mlforest.train_s", Unit: "s", Better: "lower"},
	{Name: "mlforest.walk_b1_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "mlforest.matrix_b64_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "scheduler.build_cvm_us", Unit: "us", Better: "lower"},
	{Name: "scheduler.place_us", Unit: "us", Better: "lower"},
	{Name: "scheduler.remove_us", Unit: "us", Better: "lower"},
	{Name: "core.dp_attach_us", Unit: "us", Better: "lower"},
	{Name: "core.dp_tick_ms", Unit: "ms", Better: "lower"},
	{Name: "memsim.server_tick_us", Unit: "us", Better: "lower"},
	{Name: "serve.admit_us", Unit: "us", Better: "lower"},
	{Name: "serve.release_us", Unit: "us", Better: "lower"},
	{Name: "serve.predict_us", Unit: "us", Better: "lower"},
	{Name: "serve.report_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.admit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.admit_batch_mean", Unit: "count", Better: "higher"},
	{Name: "serve.predict_batch_mean", Unit: "count", Better: "higher"},
	{Name: "serve.conflict_replays_per_admit", Unit: "count", Better: "lower"},
	{Name: "serve.whatif_candidates_per_admit", Unit: "count", Better: "lower"},
	{Name: "serve.pressure_rejected", Unit: "count", Better: "lower"},
	{Name: "serve.replay_admit_batch_mean", Unit: "count", Better: "higher"},
	{Name: "serve.replay_admit_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.tick_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.tick_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.gen_lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.crashes", Unit: "count", Better: "lower"},
	{Name: "serve.replaced_vms", Unit: "count", Better: "higher"},
	{Name: "serve.lost_vms", Unit: "count", Better: "lower"},
	{Name: "serve.cross_shard_migrations", Unit: "count", Better: "lower"},
	{Name: "sim.replay_s", Unit: "s", Better: "lower"},
	{Name: "sim.replay_none_s", Unit: "s", Better: "lower"},
	{Name: "sim.replay_dp_off_s", Unit: "s", Better: "lower"},
	{Name: "sim.replay_w1_s", Unit: "s", Better: "lower"},
	{Name: "sim.workers_speedup", Unit: "ratio", Better: "higher"},
	{Name: "sim.visits", Unit: "count", Better: "lower"},
	{Name: "sim.server_ticks", Unit: "count", Better: "lower"},
	{Name: "sim.us_per_server_tick", Unit: "us", Better: "lower"},
	{Name: "sim.violation_frac", Unit: "ratio", Better: "lower"},
	{Name: "sim.dp_contentions", Unit: "count", Better: "lower"},
	{Name: "sim.dp_trims", Unit: "count", Better: "lower"},
	{Name: "sim.dp_migrations", Unit: "count", Better: "lower"},
	{Name: "sim.failed_migrations", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number, in the shape the result line uses.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect resolves vals against defs: every defined metric must have a
// finite value, and nothing undefined may be reported.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var problems []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		switch {
		case !ok:
			problems = append(problems, "metric "+d.Name+" was not measured")
		case math.IsNaN(v) || math.IsInf(v, 0):
			problems = append(problems, "metric "+d.Name+" is not finite")
		default:
			out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	for name := range vals {
		if _, ok := out[name]; !ok && !defined(defs, name) {
			problems = append(problems, "metric "+name+" is not defined")
		}
	}
	sort.Strings(problems)
	return out, problems
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice, 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailLadder is the set of tail percentiles the benchmark will report,
// in thousandths of a percent so the sample arithmetic is exact.
var tailLadder = []int{50000, 90000, 95000, 99000, 99900, 99990}

// supportedTail returns the highest percentile of tailLadder that still
// has at least ten of the n samples beyond it, or 0 when not even the
// median does (n < 20).
func supportedTail(n int) float64 {
	best := 0
	for _, p := range tailLadder {
		if n*(100000-p) >= 10*100000 {
			best = p
		}
	}
	return float64(best) / 1000
}

// sortedCopy returns xs ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of xs in any order.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }
