// Package workload models the nine cloud workloads of the paper's Table 2
// as drivers for the memory simulator: each has a working-set size and
// dynamics, an access-locality profile (which zNUMA funneling interacts
// with), allocation churn, and a key performance metric.
//
// These synthetic models substitute for the real applications
// (memcached, SQL, TeraSort, SpecJBB, YCSB-style KV, PageRank,
// DeathStarBench, BERT fine-tuning, video conferencing) — see docs/DESIGN.md §2.
// What Fig. 18/21 measure is the interaction between working set, PA/VA
// split and paging, which the models encode per workload.
package workload

import (
	"fmt"
	"math"

	"github.com/coach-oss/coach/internal/memsim"
)

// Metric is the key performance metric class of a workload (Table 2).
type Metric int

const (
	// TailLatency workloads report P99 latency (lower is better).
	TailLatency Metric = iota
	// RunTime workloads report completion time (lower is better).
	RunTime
	// Throughput workloads report operations per second (higher is
	// better).
	Throughput
)

func (m Metric) String() string {
	switch m {
	case TailLatency:
		return "P99 latency"
	case RunTime:
		return "run time"
	case Throughput:
		return "throughput"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Spec is the static description of one workload.
type Spec struct {
	Name        string
	Description string
	Metric      Metric

	// VMSizeGB is the memory size of the VM the workload runs on.
	VMSizeGB float64
	// WSSGB is the steady-state working-set size.
	WSSGB float64

	// HotFrac is the fraction of accesses to the hot subset; HotSize is
	// the hot subset's share of the working set. Together they control
	// how well zNUMA funneling shields the workload.
	HotFrac float64
	HotSize float64

	// PhaseAmpGB, PhasePeriodS and BurstS give the working set a bursty
	// phase pattern: every PhasePeriodS seconds the working set grows by
	// PhaseAmpGB for BurstS seconds (request spikes, batch phases). The
	// burst duty cycle is what Coach's percentile prediction trades off:
	// a P95 guaranteed portion intentionally leaves sub-5%-duty bursts
	// to the oversubscribed portion.
	PhaseAmpGB   float64
	PhasePeriodS float64
	BurstS       float64

	// ChurnGBs is the allocation churn rate: GB/s of working-set pages
	// freed and re-allocated at fresh guest-physical addresses (LLM
	// fine-tuning's per-iteration alloc/free, §4.2).
	ChurnGBs float64

	// OpBaseNs is the non-memory cost of one operation (request
	// processing, network, compute); OpAccesses is the number of memory
	// accesses an operation performs. Together they convert the memory
	// simulator's access-level latency mixture into operation-level
	// latency: a request's tail inflates once the chance of hitting at
	// least one page fault per operation becomes non-negligible.
	OpBaseNs   float64
	OpAccesses float64
}

// Table2 returns the paper's Table 2 workload suite.
func Table2() []Spec {
	return []Spec{
		{
			Name: "Cache", Description: "Memcached read/writes", Metric: TailLatency,
			VMSizeGB: 32, WSSGB: 18, HotFrac: 0.60, HotSize: 0.50,
			PhaseAmpGB: 3.0, PhasePeriodS: 120, BurstS: 4, ChurnGBs: 0.010,
			OpBaseNs: 30_000, OpAccesses: 150,
		},
		{
			Name: "Database", Description: "Queries on a SQL database", Metric: TailLatency,
			VMSizeGB: 32, WSSGB: 22, HotFrac: 0.85, HotSize: 0.20,
			PhaseAmpGB: 2.0, PhasePeriodS: 300, BurstS: 10, ChurnGBs: 0.002,
			OpBaseNs: 400_000, OpAccesses: 800,
		},
		{
			Name: "Big Data", Description: "Sorting with TeraSort", Metric: RunTime,
			VMSizeGB: 32, WSSGB: 26, HotFrac: 0.40, HotSize: 0.60,
			PhaseAmpGB: 4.0, PhasePeriodS: 180, BurstS: 30, ChurnGBs: 0.02,
			OpBaseNs: 100_000, OpAccesses: 600,
		},
		{
			Name: "Web", Description: "3-tier web application (SPECjbb)", Metric: Throughput,
			VMSizeGB: 16, WSSGB: 10, HotFrac: 0.80, HotSize: 0.25,
			PhaseAmpGB: 1.5, PhasePeriodS: 240, BurstS: 8, ChurnGBs: 0.004,
			OpBaseNs: 200_000, OpAccesses: 400,
		},
		{
			Name: "KV-Store", Description: "Querying a KV-store", Metric: TailLatency,
			VMSizeGB: 32, WSSGB: 18, HotFrac: 0.55, HotSize: 0.55,
			PhaseAmpGB: 3.0, PhasePeriodS: 150, BurstS: 5, ChurnGBs: 0.010,
			OpBaseNs: 25_000, OpAccesses: 120,
		},
		{
			Name: "Graph", Description: "Computing PageRank", Metric: RunTime,
			VMSizeGB: 32, WSSGB: 28, HotFrac: 0.45, HotSize: 0.65,
			PhaseAmpGB: 2.0, PhasePeriodS: 200, BurstS: 20, ChurnGBs: 0.008,
			OpBaseNs: 80_000, OpAccesses: 700,
		},
		{
			Name: "Microservice", Description: "Social network (DeathStarBench)", Metric: TailLatency,
			VMSizeGB: 16, WSSGB: 8, HotFrac: 0.70, HotSize: 0.30,
			PhaseAmpGB: 1.5, PhasePeriodS: 90, BurstS: 3, ChurnGBs: 0.006,
			OpBaseNs: 150_000, OpAccesses: 300,
		},
		{
			Name: "LLM-FT", Description: "BERT LLM fine-tuning", Metric: RunTime,
			VMSizeGB: 64, WSSGB: 48, HotFrac: 0.50, HotSize: 0.70,
			PhaseAmpGB: 6.0, PhasePeriodS: 60, BurstS: 10, ChurnGBs: 0.35,
			OpBaseNs: 120_000, OpAccesses: 900,
		},
		{
			Name: "Video Conf", Description: "Video conference application", Metric: Throughput,
			VMSizeGB: 8, WSSGB: 5, HotFrac: 0.75, HotSize: 0.40,
			PhaseAmpGB: 1.0, PhasePeriodS: 120, BurstS: 5, ChurnGBs: 0.004,
			OpBaseNs: 300_000, OpAccesses: 250,
		},
	}
}

// SpecByName returns the Table 2 spec with the given name.
func SpecByName(name string) (Spec, error) {
	for _, s := range Table2() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Runner drives one workload instance against a VMMem and accumulates its
// key metric.
type Runner struct {
	Spec Spec
	vm   *memsim.VMMem
	cfg  memsim.Config

	elapsed  float64
	churnAcc float64

	ticks     int
	sumOpMean float64
	sumFaults float64
	sumPPA    float64
	sumPVA    float64
	sumPSoft  float64
	sumPHard  float64
	sumMeanNs float64
}

// NewRunner attaches a workload to a VM memory state and configures the
// VM's locality profile from the spec. cfg must match the memsim server
// the VM lives on (it supplies the fault latency for the op-level model).
func NewRunner(spec Spec, vm *memsim.VMMem, cfg memsim.Config) (*Runner, error) {
	if vm.SizeGB < spec.WSSGB {
		return nil, fmt.Errorf("workload: %s working set %.1fGB exceeds VM size %.1fGB", spec.Name, spec.WSSGB, vm.SizeGB)
	}
	vm.HotFrac = spec.HotFrac
	vm.HotSize = spec.HotSize
	return &Runner{Spec: spec, vm: vm, cfg: cfg}, nil
}

// WSSAt returns the working set the spec prescribes at elapsed seconds:
// the base plus PhaseAmpGB during the burst window of each period.
func (s Spec) WSSAt(elapsed float64) float64 {
	wss := s.WSSGB
	if s.PhaseAmpGB > 0 && s.PhasePeriodS > 0 && s.BurstS > 0 {
		if math.Mod(elapsed, s.PhasePeriodS) < s.BurstS {
			wss += s.PhaseAmpGB
		}
	}
	if wss < 0.1 {
		wss = 0.1
	}
	return wss
}

// Step advances the workload by dt seconds: it updates the working set
// according to the phase pattern and applies allocation churn.
func (r *Runner) Step(dt float64) {
	r.elapsed += dt
	r.vm.SetWSS(r.Spec.WSSAt(r.elapsed))

	if r.Spec.ChurnGBs > 0 {
		r.churnAcc += r.Spec.ChurnGBs * dt
		if r.churnAcc >= 0.05 {
			r.vm.Rotate(r.churnAcc)
			r.churnAcc = 0
		}
	}
}

// Record accumulates one tick's memory stats into the workload metrics.
func (r *Runner) Record(st memsim.TickStats) {
	r.ticks++
	opMean, _ := r.OpLatencies(st)
	r.sumOpMean += opMean
	r.sumFaults += st.FaultGB
	r.sumPPA += st.PPA
	r.sumPVA += st.PVA
	r.sumPSoft += st.PSoft
	r.sumPHard += st.PHard
	r.sumMeanNs += st.MeanNs
}

// OpLatencies converts one tick's access mixture into operation-level mean
// and P99 latencies. An operation performs OpAccesses memory accesses on
// top of OpBaseNs of fixed work. Its P99 pays the hypervisor allocation
// tail once the chance of an operation hitting at least one soft fault
// exceeds 1%, and the backing-store latency once the chance of hitting a
// hard fault exceeds 1%.
func (r *Runner) OpLatencies(st memsim.TickStats) (opMean, opP99 float64) {
	return r.opLatencies(st.MeanNs, st.PPA, st.PVA, st.PSoft, st.PHard)
}

func (r *Runner) opLatencies(meanNs, pPA, pVA, pSoft, pHard float64) (opMean, opP99 float64) {
	n := r.Spec.OpAccesses
	if n <= 0 {
		n = 1
	}
	opMean = r.Spec.OpBaseNs + n*meanNs

	// Latency of accesses that do not fault (PA/VA mixture).
	noFault := r.cfg.PAAccessNs
	if pnf := pPA + pVA; pnf > 0 {
		noFault = (pPA*r.cfg.PAAccessNs + pVA*r.cfg.VAAccessNs) / pnf
	}
	opP99 = r.Spec.OpBaseNs + n*noFault
	if 1-math.Pow(1-pSoft, n) > 0.01 {
		opP99 += r.cfg.SoftTailNs
	}
	if 1-math.Pow(1-pHard, n) > 0.01 {
		opP99 += r.cfg.FaultNs
	}
	return opMean, opP99
}

// MeanOpLatencyNs returns the time-averaged mean operation latency.
func (r *Runner) MeanOpLatencyNs() float64 {
	if r.ticks == 0 {
		return 0
	}
	return r.sumOpMean / float64(r.ticks)
}

// TotalFaultGB returns the cumulative faulted GB.
func (r *Runner) TotalFaultGB() float64 { return r.sumFaults }

// RunOpP99Ns returns the P99 operation latency over the whole run,
// computed from the run-averaged access mixture: once more than 1% of the
// run's operations hit at least one soft (hard) fault, the run's tail pays
// the allocation (backing-store) latency. This is the key metric of the
// tail-latency workloads.
func (r *Runner) RunOpP99Ns() float64 {
	if r.ticks == 0 {
		return 0
	}
	n := float64(r.ticks)
	_, p99 := r.opLatencies(r.sumMeanNs/n, r.sumPPA/n, r.sumPVA/n, r.sumPSoft/n, r.sumPHard/n)
	return p99
}

// KeyMetricNs returns the accumulated key metric in latency terms: P99
// operation latency for tail workloads, mean operation latency otherwise
// (run time and throughput both scale with mean latency).
func (r *Runner) KeyMetricNs() float64 {
	if r.Spec.Metric == TailLatency {
		return r.RunOpP99Ns()
	}
	return r.MeanOpLatencyNs()
}

// Slowdown returns the workload's key-metric slowdown relative to a
// baseline runner (typically the fully guaranteed GPVM), normalized so the
// baseline is 1.0 and higher means worse, matching Fig. 18's
// "normalized slowdown" for all three metric classes.
func (r *Runner) Slowdown(baseline *Runner) float64 {
	b := baseline.KeyMetricNs()
	if b == 0 {
		return 1
	}
	return r.KeyMetricNs() / b
}

// TickSlowdown returns one tick's key-metric slowdown against a baseline
// tick value — the per-second normalized slowdown plotted in Fig. 21b/c.
func (r *Runner) TickSlowdown(st memsim.TickStats, baselineNs float64) float64 {
	if baselineNs == 0 {
		return 1
	}
	opMean, opP99 := r.OpLatencies(st)
	if r.Spec.Metric == TailLatency {
		return opP99 / baselineNs
	}
	return opMean / baselineNs
}

// BaselineOpNs returns the operation latency of an uncontended, fully
// guaranteed run: all accesses at PA speed.
func (r *Runner) BaselineOpNs() float64 {
	n := r.Spec.OpAccesses
	if n <= 0 {
		n = 1
	}
	return r.Spec.OpBaseNs + n*r.cfg.PAAccessNs
}
