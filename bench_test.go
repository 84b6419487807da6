// Benchmark harness: one benchmark per table and figure of the paper.
// Each benchmark regenerates its artifact end to end at small scale and
// reports the wall time per regeneration; run with
//
//	go test -bench=. -benchmem
//
// The printed tables themselves come from cmd/coach-experiments; these
// benchmarks exist so `go test -bench` exercises every experiment code
// path and tracks its cost.
package coach

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/coach-oss/coach/internal/experiments"
	"github.com/coach-oss/coach/internal/mlforest"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/trace"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
)

// benchContext shares one small-scale context (trace, fleets, trained
// models) across all benchmarks, mirroring how the cmd tools run with
// -preset: the trace comes from the capacity scenario preset rescaled to
// ScaleSmall, so benchmarks exercise the same declarative generator the
// scenario tests and the simulator presets do (docs/DESIGN.md §11)
// rather than the legacy GenConfig path.
func benchContext() *experiments.Context {
	benchCtxOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.ScaleSmall)
		sp, err := scenario.Preset("capacity")
		if err != nil {
			panic(err)
		}
		benchCtx.Scenario = experiments.ScaleSmall.ScenarioSpec(sp)
	})
	return benchCtx
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	ctx := benchContext()
	// Warm the shared caches outside the timed region.
	if _, err := ctx.Trace(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

// Characterization (paper §2).

func BenchmarkFig2DurationHours(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig3SizeHours(b *testing.B)           { benchExperiment(b, "fig3") }
func BenchmarkFig4Stranding(b *testing.B)           { benchExperiment(b, "fig4") }
func BenchmarkFig5Bottleneck(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6Correlation(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFig7Windows(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkFig8PeaksValleys(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9Consistency(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10Savings(b *testing.B)            { benchExperiment(b, "fig10") }
func BenchmarkFig11SavingsViolin(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12Groups(b *testing.B)             { benchExperiment(b, "fig12") }
func BenchmarkFig17PercentileTradeoff(b *testing.B) { benchExperiment(b, "fig17") }

// Server-scale evaluation (paper §4.2, §4.4).

func BenchmarkFig15PAVATradeoff(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig18WorkloadPerf(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkFig21Mitigation(b *testing.B)   { benchExperiment(b, "fig21") }

// Cluster-scale evaluation (paper §4.3).

func BenchmarkFig19PredictionError(b *testing.B) { benchExperiment(b, "fig19") }
func BenchmarkFig20Packing(b *testing.B)         { benchExperiment(b, "fig20") }

// Tables and overheads.

func BenchmarkTable1Fungibility(b *testing.B) { benchExperiment(b, "tab1") }
func BenchmarkTable2Workloads(b *testing.B)   { benchExperiment(b, "tab2") }
func BenchmarkSec45Overheads(b *testing.B)    { benchExperiment(b, "sec45") }

// Ablations (beyond the paper; see docs/DESIGN.md §5).

func BenchmarkAblationWindows(b *testing.B)         { benchExperiment(b, "abl-windows") }
func BenchmarkAblationPercentile(b *testing.B)      { benchExperiment(b, "abl-percentile") }
func BenchmarkAblationForest(b *testing.B)          { benchExperiment(b, "abl-forest") }
func BenchmarkAblationMonitor(b *testing.B)         { benchExperiment(b, "abl-monitor") }
func BenchmarkAblationFleetMitigation(b *testing.B) { benchExperiment(b, "abl-fleetmit") }

// BenchmarkFleetMigration regenerates the abl-fleetmig ladders
// (no-migration vs same-shard vs cross-shard live migration, docs/
// DESIGN.md §10), so bench-smoke compiles and runs the sample-boundary
// exchange path on every push; before/after numbers for the unified
// engine are recorded in BENCH_migration.json.
func BenchmarkFleetMigration(b *testing.B) { benchExperiment(b, "abl-fleetmig") }

// BenchmarkAblationFaults regenerates the abl-faults ladders (None vs
// Coach vs Coach+Recovery under the chaos fault schedule, docs/
// DESIGN.md §13), so bench-smoke drives the failure-domain engine —
// crash eviction, recovery placement, downtime attribution — on every
// push; loss/downtime deltas are recorded in BENCH_faults.json.
func BenchmarkAblationFaults(b *testing.B) { benchExperiment(b, "abl-faults") }

// BenchmarkSimRunParallel measures the sharded cluster-simulation engine
// (docs/DESIGN.md §6) at 1/2/4/8 workers on the small-scale trace. The
// predictor is trained once outside the timed region so the benchmark
// isolates the replay engine the worker pool parallelizes.
func BenchmarkSimRunParallel(b *testing.B) {
	ctx := benchContext()
	tr, err := ctx.Trace()
	if err != nil {
		b.Fatal(err)
	}
	model, err := ctx.Model(95)
	if err != nil {
		b.Fatal(err)
	}
	fleet := NewFleet(DefaultClusters(40))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := SimConfigForPolicy(PolicyCoach)
			cfg.TrainUpTo = tr.Horizon / 2
			cfg.Model = model
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Simulate(tr, fleet, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Placed == 0 {
					b.Fatal("nothing placed")
				}
			}
		})
	}
}

// BenchmarkServeThroughput measures the serving layer's prediction hot
// path (docs/DESIGN.md §7) at 1/8/64 concurrent clients, each prediction
// one forest pass on its caller's goroutine. Requests draw from the
// evaluation-period VM population (the arrivals an admission service
// actually sees), which exercises the forest path rather than the cheap
// own-history path. The model is trained once outside the timed region
// via a shared cache.
func BenchmarkServeThroughput(b *testing.B) {
	ctx := benchContext()
	tr, err := ctx.Trace()
	if err != nil {
		b.Fatal(err)
	}
	var fresh []*trace.VM
	for i := range tr.VMs {
		if tr.VMs[i].Start >= tr.Horizon/2 {
			fresh = append(fresh, &tr.VMs[i])
		}
	}
	if len(fresh) == 0 {
		b.Fatal("no evaluation-period VMs")
	}
	cfg := DefaultServiceConfig()
	cfg.Cache = NewModelCache()
	svc, err := NewService(tr, NewFleet(DefaultClusters(8)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Warm(); err != nil {
		b.Fatal(err)
	}
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			var wg sync.WaitGroup
			per := b.N / clients
			if b.N%clients != 0 {
				per++
			}
			var failed atomic.Bool
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						vm := fresh[(c*per+i)%len(fresh)]
						if _, _, err := svc.Predict(vm); err != nil {
							failed.Store(true)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if failed.Load() {
				b.Fatal("prediction failed")
			}
		})
	}
}

// BenchmarkServeAdmit measures the admission hot path (docs/DESIGN.md
// §7) at 1/8/64 concurrent clients. Each op is one admit/release pair
// with no /v1/predict first, so every admit predicts its VM on the
// client's goroutine, then makes its one-row decision under the shard
// lock. The service is a pressure-aware data-plane fleet; clients work
// disjoint strides of the evaluation-period VM population so ids never
// collide.
func BenchmarkServeAdmit(b *testing.B) {
	ctx := benchContext()
	tr, err := ctx.Trace()
	if err != nil {
		b.Fatal(err)
	}
	var fresh []*trace.VM
	for i := range tr.VMs {
		if tr.VMs[i].Start >= tr.Horizon/2 {
			fresh = append(fresh, &tr.VMs[i])
		}
	}
	cache := NewModelCache()
	for _, clients := range []int{1, 8, 64} {
		if clients > len(fresh) {
			b.Fatalf("only %d evaluation-period VMs for %d clients", len(fresh), clients)
		}
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			cfg := DefaultServiceConfig()
			cfg.Cache = cache
			cfg.DataPlane = true
			cfg.AdmitPressureFrac = 0.95
			svc, err := NewService(tr, NewFleet(DefaultClusters(8)), cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			if err := svc.Warm(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / clients
			if b.N%clients != 0 {
				per++
			}
			var failed atomic.Bool
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					// Client c owns the VMs at indices ≡ c (mod
					// clients): no two clients ever race on one id.
					var own []*trace.VM
					for j := c; j < len(fresh); j += clients {
						own = append(own, fresh[j])
					}
					for i := 0; i < per; i++ {
						vm := own[i%len(own)]
						res, err := svc.Admit(vm)
						if err != nil {
							failed.Store(true)
							return
						}
						if res.Admitted {
							if _, err := svc.Release(vm); err != nil {
								failed.Store(true)
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
			if failed.Load() {
				b.Fatal("admission failed")
			}
		})
	}
}

// BenchmarkForestTrain measures the columnar pre-sorted training engine
// (docs/DESIGN.md §8) on small (3k-row) and large (20k-row) trace-shaped
// training sets at GOMAXPROCS 1/2/4/8 (one tree builder per core). The
// trained forest is byte-identical for any core count, so the
// sub-benchmarks differ only in throughput. Before/after numbers against the seed engine are
// recorded in BENCH_forest.json; on a single-CPU host extra workers show
// no wall-clock win (the pool adds negligible overhead), while the
// algorithmic rewrite alone is the ≥2× single-threaded speedup.
func BenchmarkForestTrain(b *testing.B) {
	for _, size := range []struct {
		name string
		rows int
	}{
		{"small", 3000},
		{"large", 20000},
	} {
		data := mlforest.TraceLikeSamples(size.rows, 11)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", size.name, workers), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				cfg := mlforest.DefaultForestConfig()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mlforest.Train(data, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPredictMatrix measures the two schedules over the forest's one
// node layout across a trees × depth × batch grid: one row at a time
// (layout=walk, one Predict call per row — the row-at-a-time reference)
// and one tree level at a time across the whole batch (layout=matrix, one
// PredictMatrix pass over a feature-major RowMatrix; docs/DESIGN.md §14).
// The production shape (DefaultForestConfig: 40 trees, depth 12) also runs
// batches 2–16, which puts the row-count crossover on record, and
// layout=sweep from batch 8 up: the call the predictor makes, batch÷6
// matrix rows swept over the 6 values of the window feature in one
// PredictSweep, so batch 8 is the lone VM and ns/row stays per answered
// row. All three produce bit-identical predictions (pinned by the mlforest
// equivalence wall), so the grid differs only in throughput; each
// sub-benchmark reports ns/row so points with different batch sizes are
// comparable. Numbers are recorded in BENCH_predict.json and the
// matrix:walk and sweep:walk ns/row ratios are gated by
// cmd/coach-benchdiff in CI.
func BenchmarkPredictMatrix(b *testing.B) {
	const poolRows = 4096
	pool := mlforest.TraceLikeSamples(poolRows, 23)
	const windowFeat = 6 // TraceLikeSamples' window index, as in predict
	windows := []float64{0, 1, 2, 3, 4, 5}
	for _, trees := range []int{8, 40} {
		for _, depth := range []int{6, 12} {
			cfg := mlforest.DefaultForestConfig()
			cfg.Trees = trees
			cfg.Tree.MaxDepth = depth
			f, err := mlforest.Train(mlforest.TraceLikeSamples(3000, 17), cfg)
			if err != nil {
				b.Fatal(err)
			}
			batches := []int{1, 64, 4096}
			def := mlforest.DefaultForestConfig()
			production := trees == def.Trees && depth == def.Tree.MaxDepth
			if production {
				batches = []int{1, 2, 4, 8, 16, 64, 4096}
			}
			for _, batch := range batches {
				rows := make([][]float64, batch)
				for i := range rows {
					rows[i] = pool[i%poolRows].Features
				}
				m := mlforest.NewRowMatrix(batch, f.NumFeatures())
				for i, r := range rows {
					m.SetRow(i, r)
				}
				out := make([]float64, batch)
				grid := fmt.Sprintf("trees=%d/depth=%d/batch=%d", trees, depth, batch)
				b.Run(grid+"/layout=walk", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for j, r := range rows {
							out[j] = f.Predict(r)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/row")
				})
				b.Run(grid+"/layout=matrix", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						f.PredictMatrix(m, out)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/row")
				})
				if !production || batch < len(windows) {
					continue
				}
				vms := batch / len(windows)
				sm := mlforest.NewRowMatrix(vms, f.NumFeatures())
				for i := 0; i < vms; i++ {
					sm.SetRow(i, rows[i])
				}
				sout := make([]float64, vms*len(windows))
				b.Run(grid+"/layout=sweep", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						f.PredictSweep(sm, windowFeat, windows, sout)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sout)), "ns/row")
				})
			}
		}
	}
}

// BenchmarkColdStart measures a serve ModelCache miss through to the first
// prediction: every iteration constructs a service with a fresh cache, so
// the timed region is dominated by training the 8 per-(resource, target)
// forests — the cold-start path the columnar engine was rebuilt to
// shorten (docs/DESIGN.md §8).
func BenchmarkColdStart(b *testing.B) {
	ctx := benchContext()
	tr, err := ctx.Trace()
	if err != nil {
		b.Fatal(err)
	}
	fresh := -1
	for i := range tr.VMs {
		if tr.VMs[i].Start >= tr.Horizon/2 {
			fresh = i
			break
		}
	}
	if fresh < 0 {
		b.Fatal("no evaluation-period VM")
	}
	fleet := NewFleet(DefaultClusters(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultServiceConfig()
		cfg.Cache = NewModelCache() // fresh cache: every iteration is a cold miss
		svc, err := NewService(tr, fleet, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := svc.Predict(&tr.VMs[fresh]); err != nil {
			b.Fatal(err)
		}
		svc.Close()
	}
}

// BenchmarkFleetTick measures the per-tick cost of the per-server memory
// data plane (memsim server + oversubscription agent) across a servers ×
// VMs grid — the inner loop the fleet-scale simulator executes once per
// simulated 5-minute sample per server (docs/DESIGN.md §9). One benchmark
// op is one fleet-wide tick: every server's working sets move, the
// hypervisor services faults under pool pressure, and the agent runs its
// monitoring/mitigation pass. Before/after numbers for the incremental
// pool accounting and the reusable tick-stats frame are recorded in
// BENCH_dataplane.json.
func BenchmarkFleetTick(b *testing.B) {
	for _, servers := range []int{4, 32} {
		for _, vms := range []int{4, 16} {
			b.Run(fmt.Sprintf("servers=%d/vms=%d", servers, vms), func(b *testing.B) {
				fleet := make([]*Server, servers)
				for s := range fleet {
					cfg := DefaultServerConfig(3*float64(vms), 2*float64(vms))
					cfg.Agent.Policy = MitigateExtend
					srv, err := NewServer(cfg)
					if err != nil {
						b.Fatal(err)
					}
					for v := 1; v <= vms; v++ {
						vm, err := NewVMMemory(v, 8, 2)
						if err != nil {
							b.Fatal(err)
						}
						if err := srv.Server.AddVM(vm); err != nil {
							b.Fatal(err)
						}
						vm.SetWSS(4)
					}
					fleet[s] = srv
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for s, srv := range fleet {
						// Deterministic drift keeps demand moving around the
						// pool limit so faults, evictions and mitigations all
						// stay on the hot path.
						wss := 4 + 3*math.Sin(float64(i+7*s)*0.1)
						for _, id := range srv.Server.VMs() {
							srv.Server.VM(id).SetWSS(wss + 0.1*float64(id))
						}
						if _, err := srv.Tick(300); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// Micro-benchmarks of the hot paths underlying the experiments.

func BenchmarkTraceGeneration(b *testing.B) {
	sp, err := scenario.Preset("capacity")
	if err != nil {
		b.Fatal(err)
	}
	sp = sp.Scaled(200, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.GenerateScenario(sp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemsimTick(b *testing.B) {
	srv, err := NewServer(DefaultServerConfig(16, 8))
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		vm, err := NewVMMemory(i, 8, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Server.AddVM(vm); err != nil {
			b.Fatal(err)
		}
		vm.SetWSS(4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Tick(1); err != nil {
			b.Fatal(err)
		}
	}
}
