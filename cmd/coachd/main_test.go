package main

import (
	"net/http"
	"testing"
	"time"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/serve"
)

// TestFlagsToConfig pins the flag → serve.Config mapping: each row names
// the fields its flags must move off serve.DefaultConfig, and everything
// else must stay at the default.
func TestFlagsToConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want func(*serve.Config)
	}{
		{"defaults", nil, func(c *serve.Config) {}},
		{"aggrcoach guarantees the P50", []string{"-policy", "AggrCoach"},
			func(c *serve.Config) { c.Policy, c.Percentile = scheduler.PolicyAggrCoach, 50 }},
		{"data-plane flags are inert without -data-plane",
			[]string{"-mitigation", "Migrate", "-admit-pressure", "0.9", "-dp-pool-frac", "0.1", "-dp-interval", "0s"},
			func(c *serve.Config) {}},
		{"data plane defaults", []string{"-data-plane"},
			func(c *serve.Config) {
				c.DataPlane, c.CrossShardMigration = true, true
				c.MitigationPolicy, c.MitigationMode = agent.PolicyTrim, agent.Reactive
			}},
		{"data plane, every knob", []string{"-data-plane", "-mitigation", "migrate", "-mitigation-mode", "Proactive",
			"-dp-pool-frac", "0.02", "-cross-shard=false", "-admit-pressure", "0.95"},
			func(c *serve.Config) {
				c.DataPlane = true
				c.MitigationPolicy, c.MitigationMode = agent.PolicyMigrate, agent.Proactive
				c.DataPlanePoolFrac, c.DataPlaneUnallocFrac = 0.02, 0.02
				c.AdmitPressureFrac = 0.95
			}},
	} {
		o, err := parseFlags(tc.args)
		if err != nil {
			t.Errorf("%s: parseFlags: %v", tc.name, err)
			continue
		}
		got, err := serveConfig(o)
		if err != nil {
			t.Errorf("%s: serveConfig: %v", tc.name, err)
			continue
		}
		want := serve.DefaultConfig()
		tc.want(&want)
		if got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}
}

// TestFlagsOutsideConfig covers the flags run consumes directly.
func TestFlagsOutsideConfig(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":8080" || o.scale != "small" || o.scenario != "" || o.servers != 8 || o.lazyTrain ||
		o.dpInterval != 2*time.Second || o.drainTimeout != 10*time.Second || o.pprofAddr != "" {
		t.Errorf("defaults: %+v", o)
	}
	o, err = parseFlags([]string{"-addr", "127.0.0.1:9", "-scale", "medium", "-scenario", "chaos", "-servers", "3",
		"-lazy-train", "-dp-interval", "20ms", "-drain-timeout", "1s", "-pprof-addr", "localhost:6060"})
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:9" || o.scale != "medium" || o.scenario != "chaos" || o.servers != 3 || !o.lazyTrain ||
		o.dpInterval != 20*time.Millisecond || o.drainTimeout != time.Second || o.pprofAddr != "localhost:6060" {
		t.Errorf("explicit: %+v", o)
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "greedy"},
		{"-mitigation", "Evict"},
		{"-mitigation-mode", "Psychic"},
		{"-no-batch"},           // retired flags must not come back silently
		{"-batch-max", "64"},    // retired with the admission batcher
		{"-train-workers", "3"}, // training always uses every core
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v: parsed without error", args)
		}
	}
	o, err := parseFlags([]string{"-data-plane", "-dp-interval", "0s"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serveConfig(o); err == nil {
		t.Error("-data-plane with a non-positive -dp-interval must fail")
	}
}

// TestNewServerBoundsSlowClients pins the connection deadlines: a client
// that never finishes its headers or body, or parks an idle keep-alive
// connection, must not hold it forever.
func TestNewServerBoundsSlowClients(t *testing.T) {
	h := http.NewServeMux()
	srv := newServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != http.Handler(h) {
		t.Errorf("addr/handler not passed through: %q %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout || srv.IdleTimeout != idleTimeout {
		t.Errorf("timeouts %s/%s/%s, want the package constants", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if readHeaderTimeout <= 0 || readTimeout < readHeaderTimeout || idleTimeout <= 0 {
		t.Errorf("constants %s/%s/%s do not bound a slow client", readHeaderTimeout, readTimeout, idleTimeout)
	}
}
