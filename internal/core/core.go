// Package core assembles Coach's control plane as depicted in the paper's
// design overview (Fig. 13): a logically centralized ClusterManager that
// converts VM requests into CoachVMs using the long-term prediction model
// and the time-window scheduling policy, and a per-server ServerManager
// that runs the memory simulator together with the local oversubscription
// agent (monitoring, prediction, mitigation).
package core

import (
	"fmt"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/memsim"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

// ClusterConfig configures a ClusterManager.
type ClusterConfig struct {
	// Policy selects the oversubscription policy (default Coach).
	Policy scheduler.PolicyKind
	// Windows is the time-window split (default 6x4h).
	Windows timeseries.Windows
	// Percentile sizes the guaranteed portion (default P95).
	Percentile float64
	// LongTerm configures predictor training; TrainConfig overrides its
	// Windows and Percentile with the ones above.
	LongTerm predict.LongTermConfig
}

// DefaultClusterConfig returns the paper's deployed configuration.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Policy:     scheduler.PolicyCoach,
		Windows:    timeseries.Windows{PerDay: 6},
		Percentile: 95,
		LongTerm:   predict.DefaultLongTermConfig(),
	}
}

// ClusterManager is the centralized manager of Fig. 13: it owns the
// prediction model and the cluster scheduler, converts incoming VM
// requests into guaranteed/oversubscribed CoachVM allocations, and places
// them onto servers.
type ClusterManager struct {
	cfg   ClusterConfig
	sched *scheduler.Scheduler
	model *predict.LongTerm
	tr    *trace.Trace
}

// NewClusterManager builds a manager over the fleet.
func NewClusterManager(fleet *cluster.Fleet, cfg ClusterConfig) (*ClusterManager, error) {
	cfg = cfg.WithDefaults()
	sched, err := scheduler.New(fleet, cfg.Windows)
	if err != nil {
		return nil, err
	}
	return &ClusterManager{cfg: cfg, sched: sched}, nil
}

// Train fits the long-term prediction model on the trace up to sample
// upTo. It must be called before Request for any policy other than None.
func (m *ClusterManager) Train(tr *trace.Trace, upTo int) error {
	model, err := predict.TrainLongTerm(tr, upTo, m.cfg.TrainConfig())
	if err != nil {
		return err
	}
	m.model = model
	m.tr = tr
	return nil
}

// Request converts a VM request into a CoachVM according to the policy:
// the cluster manager "converts the request into resource requirements and
// oversubscription rates" (§3.1). VMs without sufficient history are
// conservatively fully guaranteed.
func (m *ClusterManager) Request(vm *trace.VM) (*coachvm.CVM, error) {
	var pred coachvm.Prediction
	ok := false
	if m.model != nil && m.cfg.Policy != scheduler.PolicyNone {
		pred, ok = m.model.Predict(m.tr, vm)
	}
	return scheduler.BuildCVM(m.cfg.Policy, vm.ID, vm.Alloc, pred, ok, m.cfg.Windows)
}

// Place assigns a CoachVM to a server; ok is false when the fleet is full.
func (m *ClusterManager) Place(cvm *coachvm.CVM) (server int, ok bool) {
	return m.sched.Place(cvm)
}

// Deallocate removes a VM from its server.
func (m *ClusterManager) Deallocate(vmID int) { m.sched.Remove(vmID) }

// Scheduler exposes the underlying scheduler for inspection.
func (m *ClusterManager) Scheduler() *scheduler.Scheduler { return m.sched }

// Model exposes the trained prediction model (nil before Train).
func (m *ClusterManager) Model() *predict.LongTerm { return m.model }

// ServerConfig configures a ServerManager.
type ServerConfig struct {
	// Memory is the hardware/hypervisor parameterization.
	Memory memsim.Config
	// Agent configures monitoring/prediction/mitigation.
	Agent agent.Config
	// PoolGB is the oversubscribed pool's initial physical size.
	PoolGB float64
	// UnallocatedGB is spare server memory available to Extend.
	UnallocatedGB float64
}

// DefaultServerConfig returns a server with the default memory parameters
// and a reactive trim-only agent.
func DefaultServerConfig(poolGB, unallocGB float64) ServerConfig {
	return ServerConfig{
		Memory:        memsim.DefaultConfig(),
		Agent:         agent.DefaultConfig(),
		PoolGB:        poolGB,
		UnallocatedGB: unallocGB,
	}
}

// ServerManager is the local component of Fig. 13: the hypervisor-level
// memory manager plus the oversubscription agent supervising it.
type ServerManager struct {
	Server *memsim.Server
	Agent  *agent.Agent
}

// NewServerManager builds the per-server stack.
func NewServerManager(cfg ServerConfig) (*ServerManager, error) {
	srv := memsim.NewServer(cfg.Memory, cfg.PoolGB, cfg.UnallocatedGB)
	ag, err := agent.New(cfg.Agent, srv)
	if err != nil {
		return nil, err
	}
	return &ServerManager{Server: srv, Agent: ag}, nil
}

// Attach registers a CoachVM's memory on the server: the guaranteed
// memory portion becomes the PA region, the rest is VA.
func (sm *ServerManager) Attach(cvm *coachvm.CVM) (*memsim.VMMem, error) {
	size := cvm.Alloc[resources.Memory]
	pa := cvm.Guaranteed[resources.Memory]
	if pa > size {
		return nil, fmt.Errorf("core: vm %d guaranteed %.1fGB exceeds size %.1fGB", cvm.ID, pa, size)
	}
	vm, err := memsim.NewVMMem(cvm.ID, size, pa)
	if err != nil {
		return nil, err
	}
	if err := sm.Server.AddVM(vm); err != nil {
		return nil, err
	}
	return vm, nil
}

// Tick advances the server by dt seconds: hypervisor memory management
// first, then the agent's monitoring/prediction/mitigation pass. The
// returned frame is owned by the underlying server and reused on the next
// Tick.
func (sm *ServerManager) Tick(dt float64) (*memsim.TickFrame, error) {
	st, err := sm.Server.Tick(dt)
	if err != nil {
		return nil, err
	}
	sm.Agent.Tick(dt, st)
	return st, nil
}
