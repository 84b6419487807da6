package workload

import (
	"math"
	"testing"

	"github.com/coach-oss/coach/internal/memsim"
)

func TestTable2Complete(t *testing.T) {
	specs := Table2()
	if len(specs) != 9 {
		t.Fatalf("%d workloads, want 9 (paper Table 2)", len(specs))
	}
	names := map[string]bool{}
	metrics := map[string]Metric{
		"Cache": TailLatency, "Database": TailLatency, "Big Data": RunTime,
		"Web": Throughput, "KV-Store": TailLatency, "Graph": RunTime,
		"Microservice": TailLatency, "LLM-FT": RunTime, "Video Conf": Throughput,
	}
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate workload %s", s.Name)
		}
		names[s.Name] = true
		want, ok := metrics[s.Name]
		if !ok {
			t.Errorf("unexpected workload %s", s.Name)
			continue
		}
		if s.Metric != want {
			t.Errorf("%s metric = %v, want %v", s.Name, s.Metric, want)
		}
		if s.WSSGB <= 0 || s.WSSGB > s.VMSizeGB {
			t.Errorf("%s working set %v outside (0, %v]", s.Name, s.WSSGB, s.VMSizeGB)
		}
		if s.OpBaseNs <= 0 || s.OpAccesses <= 0 {
			t.Errorf("%s op model not set", s.Name)
		}
	}
}

func TestLLMFTHasLargestWorkingSetAndChurn(t *testing.T) {
	// §4.2: LLM-FT "has the largest working set and frequently
	// allocates/deallocates memory for each training iteration".
	specs := Table2()
	var llm Spec
	maxWSS, maxChurn := 0.0, 0.0
	for _, s := range specs {
		if s.Name == "LLM-FT" {
			llm = s
		}
		if s.WSSGB > maxWSS {
			maxWSS = s.WSSGB
		}
		if s.ChurnGBs > maxChurn {
			maxChurn = s.ChurnGBs
		}
	}
	if llm.WSSGB != maxWSS {
		t.Errorf("LLM-FT WSS %v is not the largest (%v)", llm.WSSGB, maxWSS)
	}
	if llm.ChurnGBs != maxChurn {
		t.Errorf("LLM-FT churn %v is not the largest (%v)", llm.ChurnGBs, maxChurn)
	}
}

func TestSpecByName(t *testing.T) {
	s, err := SpecByName("Cache")
	if err != nil || s.Name != "Cache" {
		t.Errorf("SpecByName(Cache) = %v, %v", s.Name, err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Error("unknown workload must fail")
	}
}

func TestMetricString(t *testing.T) {
	if TailLatency.String() != "P99 latency" || RunTime.String() != "run time" || Throughput.String() != "throughput" {
		t.Error("metric strings wrong")
	}
}

func TestWSSAtBurstPattern(t *testing.T) {
	s := Spec{WSSGB: 10, PhaseAmpGB: 3, PhasePeriodS: 100, BurstS: 5}
	if got := s.WSSAt(2); got != 13 {
		t.Errorf("during burst WSS = %v, want 13", got)
	}
	if got := s.WSSAt(50); got != 10 {
		t.Errorf("off burst WSS = %v, want 10", got)
	}
	if got := s.WSSAt(102); got != 13 {
		t.Errorf("second period burst WSS = %v, want 13", got)
	}
}

func TestWSSAtNoPattern(t *testing.T) {
	s := Spec{WSSGB: 4}
	if s.WSSAt(123) != 4 {
		t.Error("no phase pattern must return base WSS")
	}
}

func TestWSSAtFloor(t *testing.T) {
	s := Spec{WSSGB: 0}
	if s.WSSAt(0) != 0.1 {
		t.Error("WSS must floor at 0.1")
	}
}

func newRunner(t *testing.T, spec Spec, pa float64) (*Runner, *memsim.Server, *memsim.VMMem) {
	t.Helper()
	cfg := memsim.DefaultConfig()
	srv := memsim.NewServer(cfg, spec.VMSizeGB, 0)
	vm, err := memsim.NewVMMem(1, spec.VMSizeGB, pa)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddVM(vm); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(spec, vm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, srv, vm
}

func TestNewRunnerRejectsOversizedWSS(t *testing.T) {
	cfg := memsim.DefaultConfig()
	vm, _ := memsim.NewVMMem(1, 4, 4)
	spec := Spec{Name: "x", WSSGB: 8, VMSizeGB: 4}
	if _, err := NewRunner(spec, vm, cfg); err == nil {
		t.Error("WSS > VM size must fail")
	}
}

func TestRunnerConfiguresLocality(t *testing.T) {
	spec, _ := SpecByName("Database")
	_, _, vm := newRunner(t, spec, spec.VMSizeGB)
	if vm.HotFrac != spec.HotFrac || vm.HotSize != spec.HotSize {
		t.Error("runner must configure the VM's locality profile")
	}
}

func TestSelfSlowdownIsOne(t *testing.T) {
	spec, _ := SpecByName("Web")
	r, srv, _ := newRunner(t, spec, spec.VMSizeGB) // fully guaranteed
	for i := 0; i < 60; i++ {
		r.Step(1)
		st, err := srv.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		r.Record(st.Get(1))
	}
	if got := r.Slowdown(r); math.Abs(got-1) > 1e-9 {
		t.Errorf("self slowdown = %v", got)
	}
	if r.ticks != 60 {
		t.Errorf("ticks = %d", r.ticks)
	}
}

func TestFullyGuaranteedRunsAtBaseline(t *testing.T) {
	spec, _ := SpecByName("Cache")
	r, srv, _ := newRunner(t, spec, spec.VMSizeGB)
	for i := 0; i < 30; i++ {
		r.Step(1)
		st, _ := srv.Tick(1)
		r.Record(st.Get(1))
	}
	if got, want := r.MeanOpLatencyNs(), r.BaselineOpNs(); math.Abs(got-want) > 1e-6 {
		t.Errorf("fully guaranteed op latency %v != baseline %v", got, want)
	}
}

func TestOpLatenciesFaultTail(t *testing.T) {
	spec, _ := SpecByName("Cache")
	cfg := memsim.DefaultConfig()
	vm, _ := memsim.NewVMMem(1, spec.VMSizeGB, spec.VMSizeGB)
	r, err := NewRunner(spec, vm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := memsim.TickStats{PPA: 1, MeanNs: cfg.PAAccessNs}
	_, p99Clean := r.OpLatencies(clean)

	hard := memsim.TickStats{PPA: 0.99, PHard: 0.01, MeanNs: cfg.PAAccessNs}
	_, p99Hard := r.OpLatencies(hard)
	if p99Hard-p99Clean < cfg.FaultNs*0.99 {
		t.Errorf("1%% hard faults must add the fault latency to P99: %v vs %v", p99Hard, p99Clean)
	}

	soft := memsim.TickStats{PPA: 0.99, PSoft: 0.01, MeanNs: cfg.PAAccessNs}
	_, p99Soft := r.OpLatencies(soft)
	if p99Soft-p99Clean < cfg.SoftTailNs*0.99 {
		t.Errorf("1%% soft faults must add the allocation tail to P99")
	}
	if p99Soft >= p99Hard {
		t.Error("soft tail must be cheaper than hard tail")
	}
}

func TestOpLatenciesMonotoneInFaults(t *testing.T) {
	spec, _ := SpecByName("KV-Store")
	cfg := memsim.DefaultConfig()
	vm, _ := memsim.NewVMMem(1, spec.VMSizeGB, spec.VMSizeGB)
	r, _ := NewRunner(spec, vm, cfg)
	prev := -1.0
	for _, pf := range []float64{0, 0.001, 0.01, 0.1} {
		st := memsim.TickStats{PPA: 1 - pf, PHard: pf,
			MeanNs: (1-pf)*cfg.PAAccessNs + pf*cfg.FaultNs}
		mean, _ := r.OpLatencies(st)
		if mean <= prev {
			t.Fatalf("op mean not monotone in fault rate at %v", pf)
		}
		prev = mean
	}
}

func TestTickSlowdown(t *testing.T) {
	spec, _ := SpecByName("Cache")
	cfg := memsim.DefaultConfig()
	vm, _ := memsim.NewVMMem(1, spec.VMSizeGB, spec.VMSizeGB)
	r, _ := NewRunner(spec, vm, cfg)
	clean := memsim.TickStats{PPA: 1, MeanNs: cfg.PAAccessNs}
	if got := r.TickSlowdown(clean, r.BaselineOpNs()); math.Abs(got-1) > 1e-9 {
		t.Errorf("clean tick slowdown = %v", got)
	}
	if r.TickSlowdown(clean, 0) != 1 {
		t.Error("zero baseline must return 1")
	}
}

func TestChurnGeneratesFaults(t *testing.T) {
	// LLM-FT on a fully VA VM must fault continuously from churn.
	spec, _ := SpecByName("LLM-FT")
	r, srv, _ := newRunner(t, spec, 0) // all VA, pool = size
	var soft float64
	for i := 0; i < 120; i++ {
		r.Step(1)
		st, err := srv.Tick(1)
		if err != nil {
			t.Fatal(err)
		}
		if i > 60 {
			soft += st.Get(1).PSoft
		}
	}
	if soft == 0 {
		t.Error("allocation churn on a VA-backed VM must produce soft faults")
	}
}

func TestRunOpP99UsesRunAverage(t *testing.T) {
	spec, _ := SpecByName("Cache")
	cfg := memsim.DefaultConfig()
	vm, _ := memsim.NewVMMem(1, spec.VMSizeGB, spec.VMSizeGB)
	r, _ := NewRunner(spec, vm, cfg)
	// 10% of ticks have heavy hard faults: the run-level tail must pay.
	for i := 0; i < 100; i++ {
		st := memsim.TickStats{PPA: 1, MeanNs: cfg.PAAccessNs}
		if i%10 == 0 {
			st = memsim.TickStats{PPA: 0.9, PHard: 0.1, MeanNs: 0.9*cfg.PAAccessNs + 0.1*cfg.FaultNs}
		}
		r.Record(st)
	}
	if r.RunOpP99Ns() < cfg.FaultNs {
		t.Errorf("run P99 %v must include the fault latency", r.RunOpP99Ns())
	}
}
