package scheduler

import (
	"errors"
	"fmt"
	"slices"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/timeseries"
)

// Typed migration failures: callers route on the distinction — an
// unknown VM is a caller bug or a lost race (drop), while missing
// capacity is an operational condition (re-route to another shard, retry
// later, or leave the VM in place).
var (
	// ErrUnknownVM reports a migration of a VM the scheduler never
	// placed (or already removed).
	ErrUnknownVM = errors.New("scheduler: unknown vm")
	// ErrNoCapacity reports that no feasible server could take the VM;
	// its placement is unchanged.
	ErrNoCapacity = errors.New("scheduler: no server has capacity")
)

// ServerState pairs a fleet server with its oversubscription bookkeeping.
type ServerState struct {
	Server *cluster.Server
	Pool   *coachvm.Pool
}

// Used reports whether the server hosts at least one VM.
func (s *ServerState) Used() bool { return s.Pool.Len() > 0 }

// Scheduler places CoachVMs onto a fleet using best-fit vector bin-packing
// over the (windows+1)-dimensional demand vectors of §3.3. It is
// deterministic: ties break on the lowest server ID.
type Scheduler struct {
	servers []*ServerState
	// placement maps VM ID -> index into servers.
	placement map[int]int
	// down marks failed servers: every placement path skips them until
	// SetDown lifts the mark. Evicting a crashed server's VMs is the
	// caller's job (the fault-handling layers in sim and serve); the
	// scheduler only refuses new placements there. Nil until the first
	// SetDown, so the fault-free fast paths stay allocation-free.
	down []bool
	// pristine[i] records that servers[i].Pool is empty, and so (its sums
	// being exact) indistinguishable from a new one — kept current by
	// addAt and takeFrom, which every pool mutation goes through. class[i]
	// indexes the server's capacity among the fleet's distinct capacities
	// and classSeen is Place's per-call scratch over those. Dense, so
	// Place passes a pristine server on two loads. used counts the
	// servers that are not pristine.
	pristine  []bool
	used      int
	class     []int32
	classSeen []bool
}

// New builds a scheduler over the fleet with empty servers.
func New(fleet *cluster.Fleet, w timeseries.Windows) (*Scheduler, error) {
	if err := fleet.Validate(); err != nil {
		return nil, err
	}
	servers := make([]*cluster.Server, 0, len(fleet.Servers))
	for i := range fleet.Servers {
		servers = append(servers, &fleet.Servers[i])
	}
	return NewOverServers(servers, w)
}

// NewOverServers builds a scheduler restricted to an explicit server subset
// — a per-cluster view of the fleet. The sim package uses one such view per
// cluster shard so shards can be replayed concurrently without sharing
// state. Server indices returned by Place/ServerOf are positions in the
// given slice, not fleet-wide IDs.
func NewOverServers(servers []*cluster.Server, w timeseries.Windows) (*Scheduler, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(servers) == 0 {
		return nil, fmt.Errorf("scheduler: no servers")
	}
	s := &Scheduler{placement: make(map[int]int)}
	var caps []resources.Vector // distinct capacities, first-seen order
	for _, srv := range servers {
		if !srv.Capacity().Positive() {
			return nil, fmt.Errorf("scheduler: server %d has non-positive capacity %v", srv.ID, srv.Capacity())
		}
		s.servers = append(s.servers, &ServerState{
			Server: srv,
			Pool:   coachvm.NewPool(srv.Capacity(), w),
		})
		c := slices.Index(caps, srv.Capacity())
		if c < 0 {
			c, caps = len(caps), append(caps, srv.Capacity())
		}
		s.class = append(s.class, int32(c))
		s.pristine = append(s.pristine, true)
	}
	s.classSeen = make([]bool, len(caps))
	return s, nil
}

// Servers returns the server states (shared slice: do not mutate).
func (s *Scheduler) Servers() []*ServerState { return s.servers }

// Place assigns vm to the best feasible server and returns its index.
// ok is false when no server can host the VM.
//
// Placement preference follows the packing heuristics of production
// rule-based allocators: among feasible servers, prefer the one whose
// post-placement packed fraction is highest (best fit), consolidating VMs
// onto fewer servers and leaving empty servers for large requests.
func (s *Scheduler) Place(vm *coachvm.CVM) (serverIdx int, ok bool) {
	if _, dup := s.placement[vm.ID]; dup {
		return -1, false
	}
	best := -1
	bestScore := -1.0
	clear(s.classSeen)
	for i := range s.servers {
		// Score only the first pristine server of each capacity: a later
		// one holds the same (all-zero) sums against the same capacity, so
		// it fits iff the first does and scores the same bits, and equal
		// scores already go to the lowest index.
		if s.pristine[i] && !s.Down(i) {
			if s.classSeen[s.class[i]] {
				continue
			}
			s.classSeen[s.class[i]] = true
		}
		if score := s.scoreOn(i, vm); score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return -1, false
	}
	s.addAt(vm, best)
	return best, true
}

// PlaceAt assigns vm to an explicit server, bypassing the best-fit
// preference but not the feasibility check. The migration engine uses it
// to commit a destination chosen from a score row (possibly in another
// shard's scheduler); serve uses it to commit admissions.
func (s *Scheduler) PlaceAt(vm *coachvm.CVM, server int) error {
	if server < 0 || server >= len(s.servers) {
		return fmt.Errorf("scheduler: server %d outside [0,%d)", server, len(s.servers))
	}
	if _, dup := s.placement[vm.ID]; dup {
		return fmt.Errorf("scheduler: vm %d already placed", vm.ID)
	}
	if s.Down(server) {
		return fmt.Errorf("%w: vm %d on down server %d", ErrNoCapacity, vm.ID, server)
	}
	if !s.servers[server].Pool.Fits(vm) {
		return fmt.Errorf("%w: vm %d on server %d", ErrNoCapacity, vm.ID, server)
	}
	s.addAt(vm, server)
	return nil
}

// addAt commits a feasibility-checked placement.
func (s *Scheduler) addAt(vm *coachvm.CVM, server int) {
	if err := s.servers[server].Pool.Add(vm); err != nil {
		// Fits was checked by the caller; failure here is a bookkeeping bug.
		panic(fmt.Sprintf("scheduler: place on feasible server failed: %v", err))
	}
	s.placement[vm.ID] = server
	if s.pristine[server] {
		s.pristine[server] = false
		s.used++
	}
}

// takeFrom removes vmID from server's pool, returning its CVM.
func (s *Scheduler) takeFrom(vmID, server int) *coachvm.CVM {
	pool := s.servers[server].Pool
	vm := pool.Remove(vmID)
	if pool.Len() == 0 {
		s.pristine[server] = true
		s.used--
	}
	return vm
}

// NumServers returns the number of servers the scheduler packs over.
func (s *Scheduler) NumServers() int { return len(s.servers) }

// ScoreRowInto fills row (length NumServers) with vm's post-placement
// packing score on every feasible server, and -1 where the server is down
// or vm does not fit — the one ranking every placement decision outside
// Place reads (core.Rollout: admission, migration landing, crash
// recovery). A dense row never needs sorting: the highest-scoring cell
// with ties on the lowest index is Place's choice.
func (s *Scheduler) ScoreRowInto(vm *coachvm.CVM, row []float64) {
	for i := range s.servers {
		row[i] = s.scoreOn(i, vm)
	}
}

// scoreOn is the one feasibility test and score every placement path
// shares: -1 when server i is down or vm does not fit its pool, otherwise
// its packScore (never negative).
func (s *Scheduler) scoreOn(i int, vm *coachvm.CVM) float64 {
	st := s.servers[i]
	if s.Down(i) || !st.Pool.Fits(vm) {
		return -1
	}
	return s.packScore(st, vm)
}

// packScore scores placing vm on st: the mean packed fraction across
// resources after placement. Higher is fuller, which the best-fit
// preference maximizes.
func (s *Scheduler) packScore(st *ServerState, vm *coachvm.CVM) float64 {
	backed := st.Pool.Backed().Add(vm.Guaranteed)
	frac := backed.Utilization(st.Pool.Capacity())
	var sum float64
	for _, k := range resources.Kinds {
		sum += frac[k]
	}
	return sum / float64(resources.NumKinds)
}

// Remove deletes a VM from its server, returning the CVM and its former
// server index (nil, -1 when unknown).
func (s *Scheduler) Remove(vmID int) (*coachvm.CVM, int) {
	idx, ok := s.placement[vmID]
	if !ok {
		return nil, -1
	}
	delete(s.placement, vmID)
	return s.takeFrom(vmID, idx), idx
}

// MigrateTo moves a VM to an explicit server — the destination a
// migration engine picked from a score row. On failure the VM's placement
// is unchanged and the error is typed: ErrUnknownVM when the scheduler
// never placed vmID (drop the migration), ErrNoCapacity when the target is
// down or cannot fit it (re-route cross-shard or leave in place).
func (s *Scheduler) MigrateTo(vmID, target int) error {
	if target < 0 || target >= len(s.servers) {
		return fmt.Errorf("scheduler: migration target %d outside [0,%d)", target, len(s.servers))
	}
	from, ok := s.placement[vmID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownVM, vmID)
	}
	if target == from {
		return fmt.Errorf("scheduler: vm %d already on server %d", vmID, target)
	}
	if s.Down(target) {
		return fmt.Errorf("%w: vm %d to down server %d", ErrNoCapacity, vmID, target)
	}
	vm := s.takeFrom(vmID, from)
	if !s.servers[target].Pool.Fits(vm) {
		// Restore: capacity on the source is still reserved.
		s.addAt(vm, from)
		return fmt.Errorf("%w: vm %d on server %d", ErrNoCapacity, vmID, target)
	}
	s.addAt(vm, target)
	return nil
}

// CVM returns the placed CoachVM for vmID (nil when not placed). The
// migration engine uses it to re-place a VM whose live migration
// completed without re-deriving the guaranteed/oversubscribed split.
func (s *Scheduler) CVM(vmID int) *coachvm.CVM {
	idx, ok := s.placement[vmID]
	if !ok {
		return nil
	}
	return s.servers[idx].Pool.Members()[vmID]
}

// ServerOf returns the server index hosting vmID, or -1.
func (s *Scheduler) ServerOf(vmID int) int {
	if idx, ok := s.placement[vmID]; ok {
		return idx
	}
	return -1
}

// SetDown marks a server failed (down=true) or recovered (false). A
// down server is skipped by Place, PlaceAt, ScoreRowInto and
// MigrateTo; VMs already placed there stay in the bookkeeping until the
// caller removes them.
func (s *Scheduler) SetDown(server int, down bool) {
	if server < 0 || server >= len(s.servers) {
		return
	}
	if s.down == nil {
		if !down {
			return
		}
		s.down = make([]bool, len(s.servers))
	}
	s.down[server] = down
}

// Down reports whether the server is marked failed.
func (s *Scheduler) Down(server int) bool {
	return s.down != nil && server >= 0 && server < len(s.down) && s.down[server]
}

// VMsOn returns the IDs of VMs placed on server, ascending — the
// deterministic eviction order crash handling uses.
func (s *Scheduler) VMsOn(server int) []int {
	if server < 0 || server >= len(s.servers) {
		return nil
	}
	var out []int
	for id := range s.servers[server].Pool.Members() {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Placed returns the number of VMs currently placed.
func (s *Scheduler) Placed() int { return len(s.placement) }

// UsedServers returns the number of servers hosting at least one VM.
func (s *Scheduler) UsedServers() int { return s.used }
