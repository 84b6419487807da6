package main

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"time"

	"github.com/coach-oss/coach/internal/serve"
)

// runOutput is everything one run of one workload produces. The last
// line of standard output carries Correct, Attempted, Failed and
// Metrics; the rest goes to the run's side file for results.json.
type runOutput struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Traced     bool                   `json:"traced"`
	Seconds    int                    `json:"seconds"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Violations []string               `json:"violations,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	// Detail holds numbers that explain a metric without being one:
	// repetition and sample counts, the tail percentile the sample
	// supports, request mix.
	Detail map[string]float64 `json:"detail,omitempty"`
	// Repetitions holds every repetition's value of the time metrics, in
	// the order they ran.
	Repetitions map[string][]float64 `json:"repetitions,omitempty"`
	// Ledger holds the exact counts of the run: for a sim workload they
	// are a pure function of the seed.
	Ledger     any        `json:"ledger,omitempty"`
	Provenance provenance `json:"provenance"`
}

// run is one run's mutable state.
type run struct {
	out     *runOutput
	metrics map[string]float64
}

func newRun(w *workload, seed int64, seconds int, traced bool) *run {
	return &run{
		out: &runOutput{
			Workload: w.Name, Seed: seed, Traced: traced, Seconds: seconds,
			Detail: make(map[string]float64), Provenance: readProvenance(),
		},
		metrics: make(map[string]float64),
	}
}

// violate records failed correctness checks; each is a failed operation.
func (r *run) violate(vs ...string) {
	r.out.Violations = append(r.out.Violations, vs...)
	r.out.Attempted += len(vs)
	r.out.Failed += len(vs)
}

// fail counts failed operations the drivers already tallied and keeps
// what the first few looked like.
func (r *run) fail(n int, examples []string) {
	r.out.Failed += n
	r.out.Violations = append(r.out.Violations, examples...)
}

// finish resolves the metrics against defs and settles Correct.
func (r *run) finish(defs []metricDef) *runOutput {
	var problems []string
	r.out.Metrics, problems = collect(defs, r.metrics)
	r.violate(problems...)
	if r.out.Attempted < 1 {
		r.out.Attempted = 1
	}
	r.out.Correct = r.out.Failed == 0
	return r.out
}

// setupRounds is how many times the end-to-end pass sets up; setup_s is
// their median.
const setupRounds = 3

// runEndToEnd is the untraced pass: set up, then repeat the workload's
// measured region for about the given number of seconds and report the
// best repetition.
func runEndToEnd(w *workload, seed int64, seconds int) (*runOutput, error) {
	r := newRun(w, seed, seconds, false)
	var in *inputs
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if in != nil && in.svc != nil {
			in.svc.Close()
		}
		var err error
		if in, err = setup(w, seed, false, nil, 0); err != nil {
			return nil, err
		}
		setups = append(setups, in.setupS)
	}
	r.metrics["setup_s"] = median(setups)

	budget := time.Duration(seconds) * time.Second
	var err error
	switch w.primary {
	case driveStorm:
		err = r.measureStorm(in, budget)
	case driveReplay:
		err = r.measureReplay(in, budget)
	case driveSim:
		err = r.measureSim(in, budget)
	}
	if err != nil {
		return nil, err
	}
	r.metrics["peak_rss_mb"] = peakRSSMB()
	return r.finish(endToEnd), nil
}

// The time metrics of a run are those of its best repetition. On the
// shared 2-core host a neighbour slows repetitions down in spells of
// 20-60 s, so the fastest repetition is the one that says most about the
// program, and it spreads less from run to run than the median one does
// (README.md, "End-to-end metrics"). Every repetition's value is kept in
// the run file.

func (r *run) measureStorm(in *inputs, budget time.Duration) error {
	defer in.svc.Close()
	var ops, p50 []float64
	var admits, placed int
	for start := time.Now(); time.Since(start) < budget; {
		runtime.GC()
		res := runStorm(in.svc, in.evalVMs, stormClients, stormRing, stormRequests, nil)
		r.out.Attempted += res.attempted
		r.fail(res.failed, res.failures)
		r.violate(res.violations...)
		if res.requests == 0 {
			break
		}
		ops = append(ops, float64(res.requests)/res.wall.Seconds())
		p50 = append(p50, median(res.admitMs))
		admits, placed = admits+res.admits, placed+res.placed
	}
	if admits == 0 {
		return fmt.Errorf("storm: no admissions")
	}
	// Both from the repetition with the highest throughput, not the
	// lowest latency of any: under an injected neighbour the closed
	// loop's admit median fell by a third in the very repetitions whose
	// throughput fell by a third.
	best := 0
	for i := range ops {
		if ops[i] > ops[best] {
			best = i
		}
	}
	r.metrics["ops_per_s"] = ops[best]
	r.metrics["latency_ms"] = p50[best]
	r.metrics["placed_frac"] = float64(placed) / float64(admits)
	r.out.Repetitions = map[string][]float64{"ops_per_s": ops, "latency_ms": p50}
	r.out.Detail["admit_samples_per_repetition"] = float64(admits / len(ops))
	r.out.Ledger = serveLedgerOf(in.svc.Stats())
	return nil
}

func (r *run) measureReplay(in *inputs, budget time.Duration) error {
	lo, hi := replayWindow(in.tr, replayDays)
	evs, err := buildSchedule(in.tr, lo, hi, replayWall, replayReportH*samplesPerHour)
	if err != nil {
		return err
	}
	var p50 []float64
	var wall time.Duration
	var requests, admits, placed int
	var last replayResult
	for start := time.Now(); time.Since(start) < budget; {
		svc := in.svc
		in.svc = nil // the set-up's service serves the first repetition only
		if svc == nil {
			// Every repetition starts from an empty fleet and tick 0 of
			// the fault schedule; only the model is shared.
			if svc, err = in.newService(); err != nil {
				return err
			}
		}
		runtime.GC()
		res := runReplay(svc, evs, replayInflight, nil)
		svc.Close()
		r.out.Attempted += res.requests
		r.fail(res.failed, res.failures)
		r.violate(res.violations...)
		r.violate(checkFaultsFired(in, res.stats)...)
		if res.admits == 0 {
			return fmt.Errorf("replay: no admissions in %d requests", res.requests)
		}
		p50 = append(p50, median(res.admitMs))
		wall += res.wall
		requests, admits, placed = requests+res.requests, admits+res.admits, placed+res.placed
		last = res
	}
	// An open loop completes what its schedule offers: ops_per_s moves
	// only when the service falls behind, so all repetitions count.
	r.metrics["ops_per_s"] = float64(requests) / wall.Seconds()
	r.metrics["latency_ms"] = slices.Min(p50)
	r.metrics["placed_frac"] = float64(placed) / float64(admits)
	r.out.Repetitions = map[string][]float64{"latency_ms": p50}
	r.out.Detail["requests_per_repetition"] = float64(last.requests)
	r.out.Detail["admit_samples_per_repetition"] = float64(last.admits)
	r.out.Detail["gen_lag_ms_p99"] = percentile(sortedCopy(last.lagMs), 99)
	r.out.Detail["gone_409"] = float64(last.gone)
	r.out.Ledger = serveLedgerOf(last.stats)
	return nil
}

// checkFaultsFired makes sure a workload with a fault schedule really
// exercised it.
func checkFaultsFired(in *inputs, st serve.Stats) []string {
	if len(in.spec.Faults) > 0 && st.DataPlane.Crashes < 1 {
		return []string{"replay: the spec has faults but no server crashed"}
	}
	return nil
}

func (r *run) measureSim(in *inputs, budget time.Duration) error {
	cfg := in.simConfig()
	var walls []float64
	var first *simRun
	for start := time.Now(); time.Since(start) < budget || len(walls) < 3; {
		runtime.GC()
		sr, err := runSim(in, cfg, nil, 0)
		r.out.Attempted++
		if err != nil {
			r.fail(1, []string{"sim.Run: " + err.Error()})
			break
		}
		if first == nil {
			first = &sr
			r.violate(checkSim(sr.res)...)
		} else if !reflect.DeepEqual(first.res, sr.res) {
			r.violate("sim: two runs of the same configuration differ")
		}
		walls = append(walls, 1e3*sr.wall.Seconds())
	}
	if first == nil {
		return nil
	}
	best := slices.Min(walls)
	r.metrics["ops_per_s"] = 1e3 * float64(first.res.Requested) / best
	r.metrics["latency_ms"] = best
	r.metrics["placed_frac"] = first.res.PlacedFrac()
	r.out.Repetitions = map[string][]float64{"latency_ms": walls}
	r.out.Detail["violation_frac"] = violationFrac(first.res)
	r.out.Ledger = ledgerOf(first.res)
	return nil
}

// serveLedger is the serve side's counts. Under concurrent clients they
// depend on interleaving, so unlike simLedger they are not exact.
type serveLedger struct {
	Admitted             int64 `json:"admitted"`
	Released             int64 `json:"released"`
	Rejected             int64 `json:"rejected"`
	Placed               int   `json:"placed"`
	Ticks                int64 `json:"ticks"`
	Crashes              int64 `json:"crashes"`
	Recoveries           int64 `json:"recoveries"`
	EvictedVMs           int64 `json:"evicted_vms"`
	ReplacedVMs          int64 `json:"replaced_vms"`
	LostVMs              int64 `json:"lost_vms"`
	Migrations           int   `json:"migrations"`
	CrossShardMigrations int64 `json:"cross_shard_migrations"`
	PressureRejected     int64 `json:"pressure_rejected"`
}

func serveLedgerOf(st serve.Stats) serveLedger {
	dp := st.DataPlane
	l := serveLedger{
		Admitted: admittedTotal(st), Released: releasedTotal(st), Placed: st.Placed,
		Ticks: dp.Ticks, Crashes: dp.Crashes, Recoveries: dp.Recoveries, EvictedVMs: dp.EvictedVMs,
		ReplacedVMs: dp.ReplacedVMs, LostVMs: dp.LostVMs, Migrations: dp.Migrations,
		CrossShardMigrations: dp.CrossShardMigrations, PressureRejected: dp.PressureRejected,
	}
	for _, c := range st.Clusters {
		l.Rejected += c.Rejected
	}
	return l
}

// Probe sizes of the two serve drivers when they are not the workload's
// measured region: the same shape and the same compression, a fifth to a
// third of the work.
const (
	probeStormRequests = 9000
	probeReplayDays    = 1
	probeReplayWall    = time.Second
)

// runTraced is the traced pass. It sets up once, runs the workload's
// measured region untraced and then traced (their ratio is the tracing
// overhead), runs the other two drivers at probe size on the same
// inputs, and then every layer probe. One span per call into a layer;
// the spans go to spanPath.
func runTraced(w *workload, seed int64, seconds int, spanPath string) (*runOutput, error) {
	r := newRun(w, seed, seconds, true)
	t := newTracer()
	tb := t.buf()

	setupRoot, t0 := tb.id(), time.Now()
	in, err := setup(w, seed, true, tb, setupRoot)
	if err != nil {
		return nil, err
	}
	tb.add(setupRoot, 0, "setup", 0, t0, time.Now())
	if in.svc != nil {
		in.svc.Close() // each driver below builds its own
	}
	m := r.metrics
	m["trace.generate_s"], m["fault.compile_ms"], m["predict.train_s"] = in.genS, in.compileMs, in.trainS

	if err := r.tracedStorm(in, t); err != nil {
		return nil, err
	}
	if err := r.tracedReplay(in, t); err != nil {
		return nil, err
	}
	simRoot, t0 := tb.id(), time.Now()
	if w.primary == driveSim {
		plain, err := runSim(in, in.simConfig(), nil, 0)
		if err != nil {
			return nil, err
		}
		traced, err := runSim(in, in.simConfig(), tb, simRoot)
		if err != nil {
			return nil, err
		}
		m["bench.trace_overhead_frac"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
		r.out.Attempted += 2
	}
	ledger, violations, err := simLayers(in, tb, simRoot, m)
	if err != nil {
		return nil, err
	}
	tb.add(simRoot, 0, "sim", 0, t0, time.Now())
	r.out.Attempted += 4
	r.violate(violations...)
	if w.primary == driveSim {
		r.out.Ledger = ledger
	}

	probeRoot, t0 := tb.id(), time.Now()
	probePredict(in, tb, probeRoot, m)
	if err := probeForest(tb, probeRoot, m); err != nil {
		return nil, err
	}
	if err := probeShard(in, tb, probeRoot, m); err != nil {
		return nil, err
	}
	if err := probeMemsim(tb, probeRoot, m); err != nil {
		return nil, err
	}
	violations, err = probeServe(in, tb, probeRoot, m)
	if err != nil {
		return nil, err
	}
	r.violate(violations...)
	tb.add(probeRoot, 0, "probe", 0, t0, time.Now())
	m["serve.wait_ms_p50"] = r.out.Detail["storm_admit_p50_ms"] - m["serve.admit_us"]/1e3

	if err := t.flush(spanPath, w.Name, seed); err != nil {
		return nil, err
	}
	return r.finish(perLayer), nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// tracedStorm runs the closed loop on the workload's inputs: at full
// size, untraced then traced, when it is the workload's measured
// region; once at probe size otherwise.
func (r *run) tracedStorm(in *inputs, t *tracer) error {
	svc, err := in.newService()
	if err != nil {
		return err
	}
	defer svc.Close()
	requests := probeStormRequests
	if in.w.primary == driveStorm {
		requests = stormRequests
	}
	once := func(t *tracer) stormResult {
		res := runStorm(svc, in.evalVMs, stormClients, stormRing, requests, t)
		r.out.Attempted += res.attempted
		r.fail(res.failed, res.failures)
		r.violate(res.violations...)
		return res
	}
	var plain stormResult
	if in.w.primary == driveStorm {
		plain = once(nil)
	}
	res := once(t)
	if res.admits == 0 {
		return fmt.Errorf("storm: no admissions")
	}
	if in.w.primary == driveStorm && plain.wall > 0 {
		r.metrics["bench.trace_overhead_frac"] = res.wall.Seconds()/plain.wall.Seconds() - 1
	}
	b, a := res.before, res.after
	m := r.metrics
	m["serve.admit_batch_mean"] = ratio(a.AdmitBatch.Requests-b.AdmitBatch.Requests, a.AdmitBatch.Batches-b.AdmitBatch.Batches)
	m["serve.predict_batch_mean"] = ratio(a.Batch.Requests-b.Batch.Requests, a.Batch.Batches-b.Batch.Batches)
	m["serve.conflict_replays_per_admit"] = ratio(a.AdmitBatch.ConflictReplays-b.AdmitBatch.ConflictReplays, int64(res.admits))
	m["serve.whatif_candidates_per_admit"] = ratio(a.DataPlane.WhatIfCandidates-b.DataPlane.WhatIfCandidates, int64(res.admits))
	m["serve.pressure_rejected"] = float64(a.DataPlane.PressureRejected - b.DataPlane.PressureRejected)
	lat := sortedCopy(res.admitMs)
	m["serve.admit_p99_ms"] = percentile(lat, 99)
	r.out.Detail["storm_admit_p50_ms"] = percentile(lat, 50)
	r.out.Detail["storm_supported_tail_percentile"] = supportedTail(len(lat))
	r.out.Detail["storm_ops_per_s"] = float64(res.requests) / res.wall.Seconds()
	if in.w.primary == driveStorm {
		r.out.Ledger = serveLedgerOf(a)
	}
	return nil
}

// tracedReplay runs the open loop on the workload's inputs, sized like
// tracedStorm.
func (r *run) tracedReplay(in *inputs, t *tracer) error {
	days, wall := probeReplayDays, probeReplayWall
	if in.w.primary == driveReplay {
		days, wall = replayDays, replayWall
	}
	lo, hi := replayWindow(in.tr, days)
	evs, err := buildSchedule(in.tr, lo, hi, wall, replayReportH*samplesPerHour)
	if err != nil {
		return err
	}
	once := func(t *tracer) (replayResult, error) {
		svc, err := in.newService()
		if err != nil {
			return replayResult{}, err
		}
		defer svc.Close()
		res := runReplay(svc, evs, replayInflight, t)
		r.out.Attempted += res.requests
		r.fail(res.failed, res.failures)
		r.violate(res.violations...)
		r.violate(checkFaultsFired(in, res.stats)...)
		return res, nil
	}
	var plain replayResult
	if in.w.primary == driveReplay {
		if plain, err = once(nil); err != nil {
			return err
		}
	}
	res, err := once(t)
	if err != nil {
		return err
	}
	if in.w.primary == driveReplay {
		r.metrics["bench.trace_overhead_frac"] = res.wall.Seconds()/plain.wall.Seconds() - 1
	}
	st, m := res.stats, r.metrics
	ticks, lag, lat := sortedCopy(res.tickMs), sortedCopy(res.lagMs), sortedCopy(res.admitMs)
	m["serve.replay_admit_batch_mean"] = ratio(st.AdmitBatch.Requests, st.AdmitBatch.Batches)
	m["serve.replay_admit_p95_ms"] = percentile(lat, 95)
	m["serve.tick_ms_p50"] = percentile(ticks, 50)
	m["serve.tick_ms_p99"] = percentile(ticks, 99)
	m["serve.gen_lag_ms_p99"] = percentile(lag, 99)
	m["serve.crashes"] = float64(st.DataPlane.Crashes)
	m["serve.replaced_vms"] = float64(st.DataPlane.ReplacedVMs)
	m["serve.lost_vms"] = float64(st.DataPlane.LostVMs)
	m["serve.cross_shard_migrations"] = float64(st.DataPlane.CrossShardMigrations)
	r.out.Detail["replay_requests"] = float64(res.requests)
	r.out.Detail["replay_admit_p50_ms"] = percentile(lat, 50)
	r.out.Detail["replay_supported_tail_percentile"] = supportedTail(len(lat))
	r.out.Detail["replay_gone_409"] = float64(res.gone)
	if in.w.primary == driveReplay {
		r.out.Ledger = serveLedgerOf(st)
	}
	return nil
}
