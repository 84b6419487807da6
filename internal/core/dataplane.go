package core

import (
	"fmt"

	"github.com/coach-oss/coach/internal/agent"
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/memsim"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/timeseries"
)

// This file implements the fleet-scale memory data plane: one
// memsim.Server + oversubscription agent per fleet server, managed as a
// group so the cluster simulator (internal/sim) and the serving layer
// (internal/serve) drive the same machinery. A DataPlane covers one
// cluster shard — the same partition the scheduler and the parallel
// simulator use — so shards tick concurrently without sharing state.
// See docs/DESIGN.md §9.

// DataPlaneTickSeconds is the simulated length of one data-plane tick:
// one 5-minute trace sample, the granularity the paper's cluster
// evaluation works at (§4.3 uses the 5-minute data). The simulator and
// the serving layer both advance their data planes by it.
const DataPlaneTickSeconds = float64(timeseries.SampleMinutes) * 60

// DataPlaneConfig sizes the per-server data planes of a fleet.
type DataPlaneConfig struct {
	// Memory is the hardware/hypervisor parameterization of every server.
	Memory memsim.Config
	// Agent configures each server's monitoring/prediction/mitigation
	// agent (Policy and Mode select the ladder under test).
	Agent agent.Config
	// PoolFrac sizes the oversubscribed pool as a fraction of the
	// server's memory capacity; the guaranteed (PA) portions are assumed
	// to come out of the remainder.
	PoolFrac float64
	// UnallocFrac is the spare memory Extend can claim, as a fraction of
	// the server's memory capacity.
	UnallocFrac float64
}

// DefaultDataPlaneConfig returns the fleet defaults: a quarter of each
// server's memory backs the oversubscribed pool and a tenth is held back
// for Extend, with the §3.6 agent settings.
func DefaultDataPlaneConfig() DataPlaneConfig {
	return DataPlaneConfig{
		Memory:      memsim.DefaultConfig(),
		Agent:       agent.DefaultConfig(),
		PoolFrac:    0.25,
		UnallocFrac: 0.10,
	}
}

// AgentCounters aggregates the mitigation agents' evaluation counters.
type AgentCounters struct {
	Contentions int
	Trims       int
	Extends     int
	Migrations  int
}

// Add returns the element-wise sum of two counter sets.
func (c AgentCounters) Add(o AgentCounters) AgentCounters {
	c.Contentions += o.Contentions
	c.Trims += o.Trims
	c.Extends += o.Extends
	c.Migrations += o.Migrations
	return c
}

// attachment records where a VM's memory lives and the working set it
// was last driven to; mem's size and PA portion rebuild it after a live
// migration re-homes it.
type attachment struct {
	mem    *memsim.VMMem
	server int
	wss    float64
}

// CompletedMigration reports one VM whose live migration finished during
// a Tick: its memory has left the source server and awaits a landing
// decision. The MigrationEngine resolves it — re-placing the VM through
// the scheduler's placement policy and re-attaching its memory warm —
// same-shard, or cross-shard via a MigrationRequest.
type CompletedMigration struct {
	VMID int
	// Server is the source server index the memory departed from.
	Server int
	// SizeGB and PAGB reproduce the VM's memory shape at the target.
	SizeGB float64
	PAGB   float64
	// WSS is the working set the VM carried when the migration completed.
	WSS float64
}

// DataPlane manages the memory data planes of one shard's servers:
// attachment and detachment of VM memory, per-tick working-set updates,
// and surfacing of completed live migrations for the migration engine to
// land. All operations are deterministic — iteration follows the server
// slice and ascending VM ids — so replays produce bit-identical results
// for any worker count. It is not safe for concurrent use; callers (one
// simulator shard, one serve shard under its lock) serialize access.
type DataPlane struct {
	servers []*ServerManager
	frames  []*memsim.TickFrame // last Tick's frames, parallel to servers
	// vms is indexed by VM id, grown on Attach (nil: not attached);
	// attached counts the non-nil entries.
	vms      []*attachment
	attached int

	// steady marks servers whose next Tick is a provable no-op: the last
	// full tick moved nothing (memsim.Server.Quiet), no operations are in
	// flight, and no attach/detach/working-set mutation has touched the
	// server since. Tick skips them — the cached frame from the last full
	// tick is bit-identical to what re-ticking would produce — while the
	// agent still runs every tick (TickIdle) so its monitoring clock and
	// predictor state evolve exactly as under full ticking. Every mutating
	// DataPlane method clears the flag for the servers it touches.
	steady []bool

	completed []CompletedMigration // Tick scratch, reused across ticks
}

// NewDataPlane builds one ServerManager per fleet server, sizing pools
// from each server's memory capacity.
func NewDataPlane(cfg DataPlaneConfig, servers []*cluster.Server) (*DataPlane, error) {
	if cfg.PoolFrac <= 0 || cfg.PoolFrac > 1 {
		return nil, fmt.Errorf("core: pool fraction %g outside (0,1]", cfg.PoolFrac)
	}
	if cfg.UnallocFrac < 0 || cfg.UnallocFrac > 1 {
		return nil, fmt.Errorf("core: unallocated fraction %g outside [0,1]", cfg.UnallocFrac)
	}
	d := &DataPlane{
		servers: make([]*ServerManager, len(servers)),
		frames:  make([]*memsim.TickFrame, len(servers)),
		steady:  make([]bool, len(servers)),
	}
	for i, srv := range servers {
		mem := srv.Capacity()[resources.Memory]
		sm, err := NewServerManager(ServerConfig{
			Memory:        cfg.Memory,
			Agent:         cfg.Agent,
			PoolGB:        cfg.PoolFrac * mem,
			UnallocatedGB: cfg.UnallocFrac * mem,
		})
		if err != nil {
			return nil, err
		}
		d.servers[i] = sm
		// A freshly built server hosts no VMs, has no demand and no
		// operations: it is steady from birth, so a server that never
		// receives a VM never runs a single full tick.
		d.steady[i] = true
		d.frames[i] = sm.Server.Frame()
	}
	return d, nil
}

// Steady reports, per server (parallel to Servers()), whether the last
// Tick skipped that server's memsim pass and reused its cached frame.
// The slice is owned by the DataPlane; callers must not mutate it. The
// simulator uses it to reuse cached per-server histogram contributions
// instead of re-walking unchanged frames.
func (d *DataPlane) Steady() []bool { return d.steady }

// touch marks a server busy: its next Tick must run the full memsim pass.
func (d *DataPlane) touch(server int) {
	if server >= 0 && server < len(d.steady) {
		d.steady[server] = false
	}
}

// Servers exposes the per-server managers (shared slice: do not mutate).
func (d *DataPlane) Servers() []*ServerManager { return d.servers }

// Attached returns the number of VMs currently attached.
func (d *DataPlane) Attached() int { return d.attached }

// att returns id's attachment, or nil when id is not attached.
func (d *DataPlane) att(id int) *attachment {
	if id < 0 || id >= len(d.vms) {
		return nil
	}
	return d.vms[id]
}

// detach forgets id's attachment; its memory is the caller's to remove.
func (d *DataPlane) detach(id int) {
	d.vms[id] = nil
	d.attached--
}

// ServerOf returns the index of the server hosting id's memory, or -1 —
// including for a VM whose live migration completed but has not been
// landed by the migration engine yet (its memory is in flight). Once
// landed, memory and scheduler placement agree by construction
// (docs/DESIGN.md §10).
func (d *DataPlane) ServerOf(id int) int {
	if a := d.att(id); a != nil {
		return a.server
	}
	return -1
}

// Attach places VM id's memory on server: the guaranteed portion paGB
// becomes the PA region, the rest of sizeGB is oversubscribed VA.
func (d *DataPlane) Attach(server, id int, sizeGB, paGB float64) error {
	if server < 0 || server >= len(d.servers) {
		return fmt.Errorf("core: data-plane server %d outside [0,%d)", server, len(d.servers))
	}
	if id < 0 {
		return fmt.Errorf("core: negative vm id %d", id)
	}
	if d.att(id) != nil {
		return fmt.Errorf("core: vm %d already attached", id)
	}
	if paGB > sizeGB {
		paGB = sizeGB
	}
	vm, err := memsim.NewVMMem(id, sizeGB, paGB)
	if err != nil {
		return err
	}
	if err := d.servers[server].Server.AddVM(vm); err != nil {
		return err
	}
	if id >= len(d.vms) {
		d.vms = append(d.vms, make([]*attachment, id+1-len(d.vms))...)
	}
	d.vms[id] = &attachment{mem: vm, server: server}
	d.attached++
	d.touch(server)
	return nil
}

// Detach removes VM id's memory, freeing its pool frames. Returns false
// when the VM is not attached.
func (d *DataPlane) Detach(id int) bool {
	a := d.att(id)
	if a == nil {
		return false
	}
	d.detach(id)
	d.touch(a.server)
	return d.servers[a.server].Server.RemoveVM(id)
}

// CrashServer fails server: every attached VM's memory is lost (the
// hypervisor state is gone, so there is nothing to migrate), the
// memsim server reboots empty with its boot-time pool split, and the
// evicted VM ids are returned in ascending order for the caller to
// re-admit or declare lost. The agent is not reset — its monitoring
// history and counters describe the fleet's past, which a reboot does
// not rewrite. The caller owns marking the server down in its
// scheduler; a recovered server simply starts accepting placements
// again.
func (d *DataPlane) CrashServer(server int) []int {
	if server < 0 || server >= len(d.servers) {
		return nil
	}
	// Only Attach adds a data-plane server's members, so the server's
	// ascending member list is exactly its attached VMs.
	var evicted []int
	for _, vm := range d.servers[server].Server.Members() {
		evicted = append(evicted, vm.ID)
		d.detach(vm.ID)
	}
	d.servers[server].Server.Crash()
	d.touch(server)
	d.frames[server] = d.servers[server].Server.Frame()
	return evicted
}

// SetWSS drives VM id's working set (a no-op for unattached ids and for
// VMs whose memory is mid-migration off their server).
func (d *DataPlane) SetWSS(id int, wss float64) {
	a := d.att(id)
	if a == nil {
		return
	}
	if a.wss == wss {
		// Value-unchanged updates are no-ops on the VM's page populations
		// (VMMem.SetWSS with the same working set moves nothing), so they
		// must not wake a steady server. serve re-asserts every attached
		// VM's working set each tick; this guard is what keeps those
		// asserts from defeating sparse ticking.
		return
	}
	a.wss = wss
	a.mem.SetWSS(wss)
	d.touch(a.server)
}

// Tick advances every server by dt seconds (hypervisor paging plus agent
// pass). It returns one stats frame per server, parallel to Servers(),
// plus the VMs whose live migrations completed mid-tick: their memory has
// left its source server and they are detached until the caller lands
// them (MigrationEngine.Resolve same-shard, or a cross-shard apply step).
// Frames and the completed slice are owned by the DataPlane and
// overwritten on the next Tick. The completed order is deterministic:
// ascending server index, then ascending VM id within a server.
func (d *DataPlane) Tick(dt float64) ([]*memsim.TickFrame, []CompletedMigration, error) {
	d.completed = d.completed[:0]
	for i, sm := range d.servers {
		if d.steady[i] {
			// Provably idle since its last full tick: reuse that tick's
			// frame (bit-identical to re-ticking) and advance only the
			// clocks. The agent still monitors every tick; if its pass
			// starts a mitigation, the server has work again and the next
			// Tick runs it for real. A steady server cannot complete a
			// migration (in-flight operations preclude steadiness), so
			// the departed scan is skipped too.
			d.frames[i] = sm.Server.SkipTick(dt)
			sm.Agent.TickIdle(dt)
			if sm.Server.OpsInFlight() > 0 {
				d.steady[i] = false
			}
			continue
		}
		f, err := sm.Tick(dt)
		if err != nil {
			return nil, nil, err
		}
		d.frames[i] = f
		d.steady[i] = sm.Server.Quiet() && sm.Server.OpsInFlight() == 0
		for j := 0; j < f.Len(); j++ {
			if !f.Departed(j) {
				continue
			}
			id := f.ID(j)
			a := d.att(id)
			if a == nil || a.server != i {
				continue // detached mid-tick (VM ended)
			}
			d.completed = append(d.completed, CompletedMigration{
				VMID:   id,
				Server: i,
				SizeGB: a.mem.SizeGB,
				PAGB:   a.mem.PAGB,
				WSS:    a.wss,
			})
			d.detach(id)
		}
	}
	return d.frames, d.completed, nil
}

// AttachMigrated lands a migrated VM's memory on server: the VM's memory
// shape is rebuilt, its working set restored, and the pre-copied share of
// its pending demand — everything but dirtyFrac, the fraction touched
// after the final pre-copy pass — arrives resident without fault cost
// (memsim.Server.AdmitWarm). The dirty remainder demand-faults at the
// target like any cold page. Returns the GB that arrived warm.
func (d *DataPlane) AttachMigrated(server, id int, sizeGB, paGB, wss, dirtyFrac float64) (warmGB float64, err error) {
	if dirtyFrac < 0 {
		dirtyFrac = 0
	}
	if dirtyFrac > 1 {
		dirtyFrac = 1
	}
	if err := d.Attach(server, id, sizeGB, paGB); err != nil {
		return 0, err
	}
	d.SetWSS(id, wss)
	warmGB = d.servers[server].Server.AdmitWarm(id, (1-dirtyFrac)*d.vms[id].mem.Missing())
	return warmGB, nil
}

// PoolStatesInto fills used[i] and pool[i] with server i's pool frames in
// use and pool size, as one sweep over the shard. A what-if rollout
// captures the raw pool state once and derives every (request, server)
// projection as (used+need)/pool, so one sweep serves however many
// requests it scores, and a
// post-commit delta only has to refresh the one server a placement
// touched. Both slices must be len(Servers()).
func (d *DataPlane) PoolStatesInto(used, pool []float64) {
	for i, sm := range d.servers {
		used[i] = sm.Server.PoolUsed()
		pool[i] = sm.Server.PoolGB()
	}
}

// Totals sums the servers' cumulative data-plane volumes in server order.
func (d *DataPlane) Totals() memsim.Totals {
	var t memsim.Totals
	for _, sm := range d.servers {
		t = t.Add(sm.Server.Totals())
	}
	return t
}

// Counters sums the agents' mitigation counters in server order.
func (d *DataPlane) Counters() AgentCounters {
	var c AgentCounters
	for _, sm := range d.servers {
		c.Contentions += sm.Agent.ContentionsDetected
		c.Trims += sm.Agent.TrimsStarted
		c.Extends += sm.Agent.ExtendsStarted
		c.Migrations += sm.Agent.MigrationsStarted
	}
	return c
}

// PoolGB returns the fleet-wide oversubscribed pool size.
func (d *DataPlane) PoolGB() float64 {
	var t float64
	for _, sm := range d.servers {
		t += sm.Server.PoolGB()
	}
	return t
}

// PoolUsedGB returns the fleet-wide pool frames in use.
func (d *DataPlane) PoolUsedGB() float64 {
	var t float64
	for _, sm := range d.servers {
		t += sm.Server.PoolUsed()
	}
	return t
}
