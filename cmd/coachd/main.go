// Command coachd is the Coach admission server: a long-running HTTP/JSON
// service exposing the prediction-and-admission control plane
// (internal/serve) over a synthetic trace and fleet. It is "server" in
// this repo's vocabulary — the offline experiment harness lives in
// cmd/coach-experiments.
//
// Usage:
//
//	coachd [-addr :8080] [-scale small|medium|full] [-scenario capacity|NAME|spec.txt]
//	       [-servers N] [-policy none|single|coach|aggrcoach]
//	       [-lazy-train]
//	       [-drain-timeout 10s]
//	       [-data-plane] [-mitigation None|Trim|Extend|Migrate]
//	       [-mitigation-mode Reactive|Proactive] [-dp-interval 2s]
//	       [-dp-pool-frac 0] [-cross-shard=true] [-admit-pressure 0]
//	       [-pprof-addr ""]
//
// On start, coachd generates the trace for the chosen scale from the
// -scenario workload spec (a preset name, default capacity, or a spec
// file, see internal/scenario); cmd/coach-loadgen can replay the same
// scenario's arrival schedule against the server. It then trains the
// long-term predictor on the first half (unless -lazy-train defers that
// to the first request), and serves until SIGINT/SIGTERM, then shuts
// down gracefully: in-flight requests finish, new requests get 503.
//
// Every request runs on its own goroutine. A VM's next admission takes
// the prediction its last /v1/predict made instead of predicting again,
// and each admission makes one placement decision under its home
// cluster's shard lock (docs/DESIGN.md §7).
//
// With -data-plane every fleet server runs the memory data plane (memsim
// server + oversubscription agent): admitted VMs attach their memory, and
// every -dp-interval of wall time the fleet advances by one simulated
// 5-minute sample — working sets follow each VM's utilization series
// (until a client pushes live utilization via POST /v1/report) and the
// agents trim/extend/migrate under pressure. Completed live migrations
// resolve through the unified migration engine (docs/DESIGN.md §10):
// scheduler bookkeeping and memory move together, and with -cross-shard
// (the default) migrations that no home-cluster pool can absorb hand off
// to other clusters through a two-phase reserve-then-commit protocol.
// -admit-pressure > 0 additionally makes admission pressure-aware: an
// oversubscribed VM is re-routed or rejected when the target pools are
// thrashing. GET /v1/stats reports the fleet-wide aggregates
// (docs/api.md).
//
// A scenario with a faults: section (docs/scenarios.md) compiles into a
// deterministic fault schedule — the same schedule the simulator applies
// for that spec — and requires -data-plane for the server crash/recover
// events to fire (they apply on data-plane ticks). Training failure,
// injected or real, leaves coachd serving degraded: admissions fall back
// to fully-guaranteed best-fit, predictions answer 503 with Retry-After,
// and /readyz reports not-ready (docs/DESIGN.md §13).
//
// Endpoints (full schemas and curl examples in docs/api.md):
//
//	GET  /healthz     GET  /readyz    GET  /v1/stats
//	POST /v1/predict  POST /v1/admit  POST /v1/release  POST /v1/report
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; the service uses its own Handler
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/experiments"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/serve"
	"github.com/coach-oss/coach/internal/trace"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2) // the FlagSet has already reported it
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "coachd:", err)
		os.Exit(1)
	}
}

// options carries the parsed flags.
type options struct {
	addr           string
	scale          string
	scenario       string
	servers        int
	policy         scheduler.PolicyKind
	lazyTrain      bool
	dataPlane      bool
	mitigation     agent.Policy
	mitigationMode agent.Mode
	dpInterval     time.Duration
	dpPoolFrac     float64
	crossShard     bool
	admitPressure  float64
	drainTimeout   time.Duration
	pprofAddr      string
}

// parseFlags parses the command line (without the program name).
func parseFlags(args []string) (options, error) {
	o := options{policy: scheduler.PolicyCoach, mitigation: agent.PolicyTrim, mitigationMode: agent.Reactive}
	fs := flag.NewFlagSet("coachd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.scale, "scale", "small", "trace scale: small, medium or full")
	fs.StringVar(&o.scenario, "scenario", "capacity", "workload scenario: a preset name ("+strings.Join(scenario.PresetNames, ", ")+") or a spec file path")
	fs.IntVar(&o.servers, "servers", 8, "servers per cluster in the ten-cluster fleet")
	fs.Func("policy", "oversubscription policy: none, single, coach (default) or aggrcoach", func(v string) (err error) {
		o.policy, err = parsePolicy(v)
		return err
	})
	fs.BoolVar(&o.lazyTrain, "lazy-train", false, "defer model training to the first prediction request")
	fs.BoolVar(&o.dataPlane, "data-plane", false, "run the per-server memory data plane (memsim + oversubscription agent)")
	fs.Func("mitigation", "data-plane mitigation policy: None, Trim (default), Extend or Migrate", func(v string) (err error) {
		o.mitigation, err = agent.ParsePolicy(v)
		return err
	})
	fs.Func("mitigation-mode", "data-plane mitigation triggering: Reactive (default) or Proactive; Proactive builds and trains a per-server LSTM forecaster", func(v string) (err error) {
		o.mitigationMode, err = agent.ParseMode(v)
		return err
	})
	fs.DurationVar(&o.dpInterval, "dp-interval", 2*time.Second, "wall-clock interval between data-plane ticks (each one simulated 5-minute sample)")
	fs.Float64Var(&o.dpPoolFrac, "dp-pool-frac", 0, "oversubscribed pool as a fraction of server memory (0 = default 25%)")
	fs.BoolVar(&o.crossShard, "cross-shard", true, "let completed live migrations hand off to other cluster shards (requires -data-plane)")
	fs.Float64Var(&o.admitPressure, "admit-pressure", 0, "pressure-aware admission: reject or re-route oversubscribed VMs whose scheduled VA demand would push a pool past this occupancy (0 = off)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "max wait for in-flight requests on SIGINT/SIGTERM before forcing shutdown")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	return o, fs.Parse(args)
}

// serveConfig maps the flags onto the service configuration; everything
// the flags do not name keeps serve.DefaultConfig's value.
func serveConfig(o options) (serve.Config, error) {
	cfg := serve.DefaultConfig()
	cfg.FleetConfig = core.FleetConfigForPolicy(o.policy)
	if o.dataPlane {
		if o.dpInterval <= 0 {
			return cfg, fmt.Errorf("non-positive -dp-interval %s", o.dpInterval)
		}
		cfg.DataPlane = true
		cfg.MitigationPolicy = o.mitigation
		cfg.MitigationMode = o.mitigationMode
		cfg.DataPlanePoolFrac = o.dpPoolFrac
		cfg.DataPlaneUnallocFrac = o.dpPoolFrac
		cfg.CrossShardMigration = o.crossShard
		cfg.AdmitPressureFrac = o.admitPressure
	}
	return cfg, nil
}

// Connection deadlines. Without them a client that opens a connection and
// never finishes its headers or body — or parks an idle keep-alive — holds
// it forever. Handlers are not bounded here: a lazy-train first request
// legitimately takes as long as training does.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer builds the API server.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(o options) error {
	if o.pprofAddr != "" {
		// The API server uses its own mux (serve.Handler), so the default
		// mux carries only the pprof registrations — profiling the
		// inference and what-if hot paths never shares a listener with
		// admission traffic.
		go func() {
			log.Printf("pprof: http://%s/debug/pprof/", o.pprofAddr)
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}
	cfg, err := serveConfig(o)
	if err != nil {
		return err
	}
	sc, err := experiments.ParseScale(o.scale)
	if err != nil {
		return err
	}

	loaded, err := scenario.Load(o.scenario)
	if err != nil {
		return err
	}
	sp := sc.ScenarioSpec(loaded)
	genStart := time.Now()
	log.Printf("generating %s-scale trace from scenario %q", sc, sp.Name)
	tr, err := trace.GenerateScenario(sp)
	if err != nil {
		return err
	}
	log.Printf("trace generated in %s (%d VMs)", time.Since(genStart).Round(time.Millisecond), len(tr.VMs))
	fleet := cluster.NewFleet(cluster.DefaultClusters(o.servers))

	if len(sp.Faults) > 0 {
		// Compile the scenario's fault schedule against this fleet — the
		// same compilation the simulator runs for this spec, so one
		// scenario drives identical failure sequences in both. Crash and
		// recovery events fire on data-plane ticks; the tick counter
		// starts at process start, mirroring the simulator's evaluation
		// period.
		sizes := make([]int, 0, fleet.NumClusters())
		for _, servers := range fleet.Shards() {
			sizes = append(sizes, len(servers))
		}
		sched, err := fault.Compile(sp.Faults, sp.Seed, sizes, tr.Horizon-tr.Horizon/2)
		if err != nil {
			return err
		}
		cfg.Faults = sched
		if !o.dataPlane {
			log.Printf("warning: scenario %q has a faults: section but -data-plane is off — server crash/recover events fire on data-plane ticks and will never apply", sp.Name)
		}
		log.Printf("fault schedule: %d server crashes compiled (seed %d)", sched.Crashes(), sp.Seed)
	}
	svc, err := serve.New(tr, fleet, cfg)
	if err != nil {
		return err
	}
	if !o.lazyTrain {
		start := time.Now()
		if err := svc.Warm(); err != nil {
			// Keep serving: admissions fall back to fully-guaranteed
			// best-fit and /readyz reports not-ready until a later
			// training attempt succeeds.
			log.Printf("warning: model training failed, serving degraded: %v", err)
		} else {
			log.Printf("model trained in %s", time.Since(start).Round(time.Millisecond))
		}
	}

	srv := newServer(o.addr, svc.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.dataPlane {
		go func() {
			log.Printf("data plane: %s/%s, one 5-minute sample per %s",
				cfg.MitigationPolicy, cfg.MitigationMode, o.dpInterval)
			ticker := time.NewTicker(o.dpInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := svc.TickDataPlane(); err != nil {
						if !errors.Is(err, serve.ErrClosed) {
							log.Printf("data plane tick: %v", err)
						}
						return
					}
				}
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving %d VMs on %d servers (%d clusters, policy %s) at %s",
			len(tr.VMs), len(fleet.Servers), fleet.NumClusters(), cfg.Policy, o.addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		svc.Close()
		return err
	case <-ctx.Done():
	}

	log.Printf("shutting down (drain timeout %s)", o.drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	err = srv.Shutdown(shutdownCtx) // stop accepting, finish in-flight requests
	svc.Close()                     // then reject what is still arriving
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	st := svc.Stats()
	log.Printf("final: placed=%d predictions=%d cache hits/misses=%d/%d",
		st.Placed, st.Batch.Requests, st.Cache.Hits, st.Cache.Misses)
	if st.DataPlane.Enabled {
		log.Printf("data plane: ticks=%d attached=%d pool used %.1f/%.1f GB, trims=%d (%.1f GB) extends=%d (%.1f GB) migrations=%d (%.1f GB), faults hard %.1f GB / soft %.1f GB, stolen %.1f GB",
			st.DataPlane.Ticks, st.DataPlane.AttachedVMs,
			st.DataPlane.PoolUsedGB, st.DataPlane.PoolGB,
			st.DataPlane.Trims, st.DataPlane.TrimmedGB,
			st.DataPlane.Extends, st.DataPlane.ExtendedGB,
			st.DataPlane.Migrations, st.DataPlane.MigratedGB,
			st.DataPlane.HardFaultGB, st.DataPlane.SoftFaultGB, st.DataPlane.StolenGB)
		log.Printf("migration engine: landed same-shard=%d cross-shard=%d failed=%d, warm-arrived %.1f GB, pressure-rejected admissions=%d",
			st.DataPlane.SameShardMigrations, st.DataPlane.CrossShardMigrations,
			st.DataPlane.FailedMigrations, st.DataPlane.WarmArrivedGB,
			st.DataPlane.PressureRejected)
		if st.DataPlane.Crashes > 0 || st.DataPlane.Recoveries > 0 {
			log.Printf("failure domain: crashes=%d recoveries=%d evicted=%d replaced=%d lost=%d pending-handoffs=%d",
				st.DataPlane.Crashes, st.DataPlane.Recoveries, st.DataPlane.EvictedVMs,
				st.DataPlane.ReplacedVMs, st.DataPlane.LostVMs, st.DataPlane.PendingHandoffs)
		}
	}
	return nil
}

func parsePolicy(s string) (scheduler.PolicyKind, error) {
	switch strings.ToLower(s) {
	case "none":
		return scheduler.PolicyNone, nil
	case "single":
		return scheduler.PolicySingle, nil
	case "coach":
		return scheduler.PolicyCoach, nil
	case "aggrcoach":
		return scheduler.PolicyAggrCoach, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (none|single|coach|aggrcoach)", s)
	}
}
