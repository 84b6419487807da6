package scheduler

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/timeseries"
)

var w6 = timeseries.Windows{PerDay: 6}

func smallFleet(serversPer int) *cluster.Fleet {
	return cluster.NewFleet([]cluster.Config{
		{Name: "T", Spec: cluster.ServerSpec{Name: "t", Generation: 1,
			Capacity: resources.NewVector(16, 64, 10, 1024)}, Servers: serversPer},
	})
}

func guaranteedVM(id int, cores, mem float64) *coachvm.CVM {
	return coachvm.FullyGuaranteed(id, resources.NewVector(cores, mem, 1, 32), w6)
}

func mustScheduler(t *testing.T, fleet *cluster.Fleet) *Scheduler {
	t.Helper()
	s, err := New(fleet, w6)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(smallFleet(1), timeseries.Windows{PerDay: 7}); err == nil {
		t.Error("invalid windows must fail")
	}
}

func TestPlaceAndRemove(t *testing.T) {
	s := mustScheduler(t, smallFleet(2))
	vm := guaranteedVM(1, 4, 16)
	idx, ok := s.Place(vm)
	if !ok {
		t.Fatal("placement failed on empty fleet")
	}
	if s.ServerOf(1) != idx {
		t.Error("ServerOf inconsistent")
	}
	if s.Placed() != 1 || s.UsedServers() != 1 {
		t.Error("bookkeeping wrong after place")
	}
	got, from := s.Remove(1)
	if got != vm || from != idx {
		t.Error("Remove returned wrong VM/server")
	}
	if s.Placed() != 0 || s.ServerOf(1) != -1 {
		t.Error("bookkeeping wrong after remove")
	}
}

func TestPlaceRejectsDuplicateID(t *testing.T) {
	s := mustScheduler(t, smallFleet(2))
	if _, ok := s.Place(guaranteedVM(1, 1, 4)); !ok {
		t.Fatal("first placement failed")
	}
	if _, ok := s.Place(guaranteedVM(1, 1, 4)); ok {
		t.Error("duplicate ID placement must fail")
	}
}

func TestPlaceRejectsWhenFull(t *testing.T) {
	s := mustScheduler(t, smallFleet(1))
	// 16-core server: four 4-core VMs fit, the fifth cannot.
	for i := 0; i < 4; i++ {
		if _, ok := s.Place(guaranteedVM(i, 4, 16)); !ok {
			t.Fatalf("vm %d should fit", i)
		}
	}
	if _, ok := s.Place(guaranteedVM(4, 4, 16)); ok {
		t.Error("fifth VM must be rejected")
	}
}

func TestBestFitConsolidates(t *testing.T) {
	// Two servers; small VMs should pack onto one before using the other.
	s := mustScheduler(t, smallFleet(2))
	a, _ := s.Place(guaranteedVM(1, 2, 8))
	b, _ := s.Place(guaranteedVM(2, 2, 8))
	if a != b {
		t.Errorf("best-fit spread small VMs across servers: %d vs %d", a, b)
	}
	if s.UsedServers() != 1 {
		t.Errorf("UsedServers = %d, want 1", s.UsedServers())
	}
}

func TestMigrateMovesVM(t *testing.T) {
	s := mustScheduler(t, smallFleet(2))
	from, _ := s.Place(guaranteedVM(1, 4, 16))
	to := 1 - from
	if err := s.MigrateTo(1, to); err != nil {
		t.Fatalf("migration failed with a free server available: %v", err)
	}
	if s.ServerOf(1) != to {
		t.Error("placement map not updated")
	}
	if s.Servers()[from].Pool.Len() != 0 || s.Servers()[to].Pool.Len() != 1 {
		t.Error("pools not updated")
	}
}

// fullFleetFixture places VM 1 and a blocker on distinct servers of a
// two-server fleet, each too big for the other's server.
func fullFleetFixture(t *testing.T) (s *Scheduler, idx, blocker int) {
	t.Helper()
	s = mustScheduler(t, smallFleet(2))
	idx, _ = s.Place(guaranteedVM(1, 10, 40))
	blocker, _ = s.Place(guaranteedVM(2, 10, 40))
	if idx == blocker {
		t.Fatal("fixture VMs must land on distinct servers")
	}
	return s, idx, blocker
}

func TestMigrateRestoresOnFailure(t *testing.T) {
	s, idx, blocker := fullFleetFixture(t)
	backed := s.Servers()[idx].Pool.Backed()
	if err := s.MigrateTo(1, blocker); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("migration onto a full server = %v, want ErrNoCapacity", err)
	}
	if s.ServerOf(1) != idx {
		t.Error("VM must be restored to its original server")
	}
	if s.Servers()[idx].Pool.Len() != 1 || s.Servers()[idx].Pool.Backed() != backed {
		t.Error("source pool must hold the VM exactly as before")
	}
	if s.Servers()[blocker].Pool.Len() != 1 {
		t.Error("target pool must be untouched")
	}
}

func TestMigrateUnknownVM(t *testing.T) {
	s := mustScheduler(t, smallFleet(2))
	if err := s.MigrateTo(99, 1); !errors.Is(err, ErrUnknownVM) {
		t.Errorf("migrating unknown VM = %v, want ErrUnknownVM", err)
	}
}

func TestMigrateNoCapacity(t *testing.T) {
	// The failure must be typed ErrNoCapacity whether the target is full
	// or down, distinguishable from an unknown VM, and leave the placement
	// untouched.
	s, idx, blocker := fullFleetFixture(t)
	if err := s.MigrateTo(1, blocker); !errors.Is(err, ErrNoCapacity) || errors.Is(err, ErrUnknownVM) {
		t.Fatalf("migration onto a full server = %v, want ErrNoCapacity only", err)
	}
	s.Remove(2)
	s.SetDown(blocker, true)
	if err := s.MigrateTo(1, blocker); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("migration onto a down server = %v, want ErrNoCapacity", err)
	}
	if s.ServerOf(1) != idx {
		t.Error("failed migration must not move the VM")
	}
}

func TestMigrateToExplicitTarget(t *testing.T) {
	s := mustScheduler(t, smallFleet(3))
	from, _ := s.Place(guaranteedVM(1, 4, 16))
	target := (from + 2) % 3
	if err := s.MigrateTo(1, target); err != nil {
		t.Fatal(err)
	}
	if s.ServerOf(1) != target {
		t.Errorf("VM on server %d, want %d", s.ServerOf(1), target)
	}
	if err := s.MigrateTo(1, target); err == nil {
		t.Error("migrating onto the current server must fail")
	}
	if err := s.MigrateTo(1, 7); err == nil {
		t.Error("out-of-range target must fail")
	}
	if err := s.MigrateTo(99, 0); !errors.Is(err, ErrUnknownVM) {
		t.Errorf("unknown VM = %v, want ErrUnknownVM", err)
	}
	// Fill the target so the move cannot fit: typed failure, placement
	// restored.
	s.Place(guaranteedVM(2, 14, 56))
	blocked := s.ServerOf(2)
	if blocked == target {
		t.Fatal("fixture: blocker landed on the VM's own server")
	}
	if err := s.MigrateTo(1, blocked); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("move onto full server = %v, want ErrNoCapacity", err)
	}
	if s.ServerOf(1) != target {
		t.Error("failed MigrateTo must restore the VM")
	}
}

func TestCandidatesRankingMatchesPlace(t *testing.T) {
	fleet := cluster.NewFleet([]cluster.Config{
		{Name: "T", Spec: cluster.ServerSpec{Name: "t", Generation: 1,
			Capacity: resources.NewVector(16, 64, 10, 1024)}, Servers: 4},
	})
	s := mustScheduler(t, fleet)
	// Stagger occupancy so scores differ.
	s.PlaceAt(guaranteedVM(10, 8, 32), 2)
	s.PlaceAt(guaranteedVM(11, 4, 16), 1)
	probe := guaranteedVM(1, 2, 8)
	cands := ranked(s, probe, -1)
	if len(cands) != 4 {
		t.Fatalf("got %d candidates, want 4", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].score > cands[i-1].score {
			t.Fatal("candidates not sorted by descending score")
		}
	}
	want, ok := s.Place(probe)
	if !ok || want != cands[0].server {
		t.Errorf("Place chose %d, ranking put %d first", want, cands[0].server)
	}
	// Excluding the best candidate removes exactly it.
	rest := ranked(s, guaranteedVM(2, 2, 8), cands[0].server)
	for _, c := range rest {
		if c.server == cands[0].server {
			t.Error("excluded server still ranked")
		}
	}
	if got := ranked(s, guaranteedVM(4, 99, 8), -1); len(got) != 0 {
		t.Errorf("unplaceable VM ranked %d candidates", len(got))
	}
}

func TestPlaceAtAndCVM(t *testing.T) {
	s := mustScheduler(t, smallFleet(2))
	vm := guaranteedVM(1, 4, 16)
	if err := s.PlaceAt(vm, 1); err != nil {
		t.Fatal(err)
	}
	if s.ServerOf(1) != 1 {
		t.Error("PlaceAt ignored the explicit server")
	}
	if got := s.CVM(1); got != vm {
		t.Error("CVM accessor must return the placed CoachVM")
	}
	if s.CVM(42) != nil {
		t.Error("CVM of an unplaced id must be nil")
	}
	if err := s.PlaceAt(vm, 0); err == nil {
		t.Error("duplicate PlaceAt must fail")
	}
	if err := s.PlaceAt(guaranteedVM(2, 99, 16), 0); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("infeasible PlaceAt = %v, want ErrNoCapacity", err)
	}
	if err := s.PlaceAt(guaranteedVM(3, 1, 1), 9); err == nil {
		t.Error("out-of-range PlaceAt must fail")
	}
}

func TestPlaceDeterministic(t *testing.T) {
	mk := func() []int {
		s := mustScheduler(t, smallFleet(4))
		rng := rand.New(rand.NewSource(11))
		var idxs []int
		for i := 0; i < 30; i++ {
			vm := guaranteedVM(i, float64(1+rng.Intn(4)), float64(4*(1+rng.Intn(4))))
			if idx, ok := s.Place(vm); ok {
				idxs = append(idxs, idx)
			}
		}
		return idxs
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("nondeterministic placement count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBuildCVMNonePolicy(t *testing.T) {
	alloc := resources.NewVector(4, 16, 2, 128)
	vm, err := BuildCVM(PolicyNone, 1, alloc, coachvm.Prediction{}, true, w6)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Guaranteed != alloc {
		t.Error("None policy must fully guarantee")
	}
}

func TestBuildCVMNoHistoryFallsBack(t *testing.T) {
	alloc := resources.NewVector(4, 16, 2, 128)
	for _, p := range []PolicyKind{PolicySingle, PolicyCoach, PolicyAggrCoach} {
		vm, err := BuildCVM(p, 1, alloc, coachvm.Prediction{}, false, w6)
		if err != nil {
			t.Fatal(err)
		}
		if vm.Guaranteed != alloc {
			t.Errorf("%v without history must fully guarantee", p)
		}
	}
}

func mkPrediction(maxCPU []float64) coachvm.Prediction {
	p := coachvm.Prediction{Windows: w6, Percentile: 95}
	for _, k := range resources.Kinds {
		p.Max[k] = make([]float64, w6.PerDay)
		p.Pct[k] = make([]float64, w6.PerDay)
		for i := range p.Max[k] {
			p.Max[k][i] = 0.5
			p.Pct[k][i] = 0.4
		}
	}
	copy(p.Max[resources.CPU], maxCPU)
	return p
}

func TestBuildCVMSingleCollapsesWindows(t *testing.T) {
	alloc := resources.NewVector(8, 32, 4, 256)
	pred := mkPrediction([]float64{0.2, 0.8, 0.4, 0.2, 0.2, 0.2})
	single, err := BuildCVM(PolicySingle, 1, alloc, pred, true, w6)
	if err != nil {
		t.Fatal(err)
	}
	// Single: every window's demand equals the lifetime max.
	first := single.SchedDemand(resources.CPU, 0)
	for tt := 1; tt < w6.PerDay; tt++ {
		if single.SchedDemand(resources.CPU, tt) != first {
			t.Fatal("Single policy must have flat per-window demand")
		}
	}
	coach, err := BuildCVM(PolicyCoach, 2, alloc, pred, true, w6)
	if err != nil {
		t.Fatal(err)
	}
	// Coach: window 1 demand must exceed window 0 (0.8 vs 0.2).
	if coach.SchedDemand(resources.CPU, 1) <= coach.SchedDemand(resources.CPU, 0) {
		t.Error("Coach policy must preserve per-window structure")
	}
	// And Coach's off-peak demand is below Single's flat demand.
	if coach.SchedDemand(resources.CPU, 0) >= first {
		t.Error("Coach off-peak demand must undercut Single")
	}
}

func TestCoachPacksComplementaryVMs(t *testing.T) {
	// Two VMs peaking in different windows fit together under Coach but
	// not under Single — the core of the paper's claim.
	cap := resources.NewVector(10, 64, 10, 1024)
	fleet := cluster.NewFleet([]cluster.Config{
		{Name: "T", Spec: cluster.ServerSpec{Name: "t", Capacity: cap}, Servers: 1},
	})
	alloc := resources.NewVector(8, 16, 1, 64)
	dayPeak := mkPrediction([]float64{0.2, 0.2, 0.2, 1, 1, 0.2})
	nightPeak := mkPrediction([]float64{1, 1, 0.2, 0.2, 0.2, 0.2})

	sCoach := mustScheduler(t, fleet)
	a, _ := BuildCVM(PolicyCoach, 1, alloc, dayPeak, true, w6)
	b, _ := BuildCVM(PolicyCoach, 2, alloc, nightPeak, true, w6)
	if _, ok := sCoach.Place(a); !ok {
		t.Fatal("first VM must place")
	}
	if _, ok := sCoach.Place(b); !ok {
		t.Fatal("Coach must colocate complementary VMs (peak demands 8+1.6 <= 10)")
	}

	fleet2 := cluster.NewFleet([]cluster.Config{
		{Name: "T", Spec: cluster.ServerSpec{Name: "t", Capacity: cap}, Servers: 1},
	})
	sSingle := mustScheduler(t, fleet2)
	a2, _ := BuildCVM(PolicySingle, 1, alloc, dayPeak, true, w6)
	b2, _ := BuildCVM(PolicySingle, 2, alloc, nightPeak, true, w6)
	if _, ok := sSingle.Place(a2); !ok {
		t.Fatal("first VM must place under Single")
	}
	if _, ok := sSingle.Place(b2); ok {
		t.Error("Single must reject the second VM (flat demands 8+8 > 10)")
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[PolicyKind]string{
		PolicyNone: "None", PolicySingle: "Single",
		PolicyCoach: "Coach", PolicyAggrCoach: "AggrCoach",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if len(Policies) != 4 {
		t.Error("Policies must list 4 kinds")
	}
}

// Property: whatever is placed never exceeds any server's capacity in any
// window.
func TestCapacityInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		s := mustScheduler(t, smallFleet(3))
		for i := 0; i < 50; i++ {
			pred := mkPrediction([]float64{
				rng.Float64(), rng.Float64(), rng.Float64(),
				rng.Float64(), rng.Float64(), rng.Float64(),
			})
			alloc := resources.NewVector(float64(1+rng.Intn(8)), float64(4+4*rng.Intn(8)), 1, 64)
			vm, err := BuildCVM(PolicyCoach, i, alloc, pred, true, w6)
			if err != nil {
				t.Fatal(err)
			}
			s.Place(vm)
		}
		for _, st := range s.Servers() {
			cap := st.Server.Capacity()
			for _, k := range resources.Kinds {
				for tt := 0; tt < w6.PerDay; tt++ {
					if st.Pool.DemandAt(k, tt) > cap[k]+1e-6 {
						t.Fatalf("window demand %v exceeds capacity %v", st.Pool.DemandAt(k, tt), cap[k])
					}
				}
			}
		}
	}
}

// TestDownTracking: a down server is invisible to placement until
// recovery, VMsOn reports its residents in ascending eviction order,
// and SetDown is bounds-safe.
func TestDownTracking(t *testing.T) {
	s := mustScheduler(t, smallFleet(2))
	// Fill server 0 first so both servers host VMs deterministically.
	if err := s.PlaceAt(guaranteedVM(3, 4, 16), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceAt(guaranteedVM(1, 4, 16), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceAt(guaranteedVM(2, 4, 16), 1); err != nil {
		t.Fatal(err)
	}
	if got := s.VMsOn(0); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("VMsOn(0) = %v, want ascending [1 3]", got)
	}

	s.SetDown(0, true)
	if !s.Down(0) || s.Down(1) {
		t.Fatal("down flags wrong after SetDown(0, true)")
	}
	if idx, ok := s.Place(guaranteedVM(4, 4, 16)); !ok || idx != 1 {
		t.Fatalf("Place during outage = (%d, %v), want server 1", idx, ok)
	}
	if err := s.PlaceAt(guaranteedVM(5, 1, 4), 0); err == nil {
		t.Fatal("PlaceAt onto a down server succeeded")
	}
	if got := ranked(s, guaranteedVM(6, 16, 64), 1); len(got) != 0 {
		t.Fatalf("ranking includes the down server: %v", got)
	}

	// Evict + recover: the server accepts placements again.
	for _, id := range s.VMsOn(0) {
		s.Remove(id)
	}
	s.SetDown(0, false)
	if s.Down(0) {
		t.Fatal("still down after recovery")
	}
	if err := s.PlaceAt(guaranteedVM(7, 4, 16), 0); err != nil {
		t.Fatalf("PlaceAt after recovery: %v", err)
	}

	// Out-of-range servers are ignored, not panics.
	s.SetDown(-1, true)
	s.SetDown(99, true)
	if s.Down(-1) || s.Down(99) {
		t.Fatal("out-of-range Down reports true")
	}
}
