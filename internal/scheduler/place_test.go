package scheduler

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/resources"
)

// randomCVM builds a Coach-policy CVM with a random per-window shape.
// Network allocations come in 0.1 Gbps steps, the granularity whose float
// sums would leave residue when a pool drains.
func randomCVM(tb testing.TB, rng *rand.Rand, id int) *coachvm.CVM {
	tb.Helper()
	cores := float64(int(1) << rng.Intn(4))
	alloc := resources.NewVector(cores, 4*cores, 0.1*float64(1+rng.Intn(30)), 32*cores)
	p := coachvm.Prediction{Windows: w6, Percentile: 95}
	for _, k := range resources.Kinds {
		p.Max[k] = make([]float64, w6.PerDay)
		p.Pct[k] = make([]float64, w6.PerDay)
		for t := range p.Max[k] {
			p.Max[k][t] = 0.05 * float64(1+rng.Intn(20))
			p.Pct[k][t] = p.Max[k][t] * rng.Float64()
		}
	}
	vm, err := coachvm.New(id, alloc, p)
	if err != nil {
		tb.Fatal(err)
	}
	return vm
}

// fullScanPlace is Place without the pristine-server rule: the arg-max of
// scoreOn over every server, lowest index on ties. It does not commit.
func fullScanPlace(s *Scheduler, vm *coachvm.CVM) int {
	best, bestScore := -1, -1.0
	for i := range s.servers {
		if score := s.scoreOn(i, vm); score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// TestPlaceSkipsOnlyPristineServers pins Place's pristine-server rule to
// the unskipped scan. Server 0 is filled and drained first, in a
// different order: its exact sums leave it pristine again, and the
// pristine flag and the used-server count must track every pool's
// emptiness and zero sums through the churn that follows. Runs on a one-capacity fleet and on a
// mixed-capacity NewOverServers view with a down server.
func TestPlaceSkipsOnlyPristineServers(t *testing.T) {
	small := cluster.ServerSpec{Name: "s", Generation: 1, Capacity: resources.NewVector(16, 64, 10, 1024)}
	big := cluster.ServerSpec{Name: "b", Generation: 2, Capacity: resources.NewVector(64, 256, 40, 4096)}
	mixed := cluster.NewFleet([]cluster.Config{
		{Name: "S", Spec: small, Servers: 5},
		{Name: "B", Spec: big, Servers: 5},
	})
	var view []*cluster.Server
	for i := range mixed.Servers { // interleave the two capacities
		view = append(view, &mixed.Servers[(i%2)*5+i/2])
	}
	mixedSched, err := NewOverServers(view, w6)
	if err != nil {
		t.Fatal(err)
	}
	mixedSched.SetDown(2, true)

	for name, s := range map[string]*Scheduler{
		"uniform": mustScheduler(t, smallFleet(8)),
		"mixed":   mixedSched,
	} {
		rng := rand.New(rand.NewSource(5))
		// Fill server 0 alone, then drain it in a different order.
		var ids []int
		for id := 0; id < 200; id++ {
			vm := randomCVM(t, rng, id)
			if s.servers[0].Pool.Fits(vm) {
				if err := s.PlaceAt(vm, 0); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids {
			s.Remove(id)
		}
		if p0 := s.servers[0].Pool; len(ids) == 0 || p0.Len() != 0 || !p0.Backed().IsZero() || !s.pristine[0] {
			t.Fatalf("%s: drained server 0 of %d VMs has Len %d, Backed %v, pristine %v: want pristine",
				name, len(ids), p0.Len(), p0.Backed(), s.pristine[0])
		}

		placed, rejected := 0, 0
		for id := 1000; id < 1400; id++ {
			vm := randomCVM(t, rng, id)
			want := fullScanPlace(s, vm)
			got, ok := s.Place(vm)
			if got != want || ok != (want >= 0) {
				t.Fatalf("%s: vm %d placed on %d (ok=%v), full scan picks %d", name, id, got, ok, want)
			}
			if ok {
				placed++
			} else {
				rejected++
			}
			// Churn through both removal paths; either is a no-op (or a
			// typed error) when the VM is absent or the move does not fit.
			victim := 1000 + rng.Intn(id-999)
			switch rng.Intn(4) {
			case 0:
				s.Remove(victim)
			case 1:
				_ = s.MigrateTo(victim, rng.Intn(len(s.servers)))
			}
			used := 0
			for i, st := range s.servers {
				want := st.Pool.Len() == 0 && st.Pool.Backed().IsZero() && st.Pool.Guaranteed().IsZero()
				if s.pristine[i] != want {
					t.Fatalf("%s: after vm %d, pristine[%d] = %v, pool says %v", name, id, i, s.pristine[i], want)
				}
				if st.Used() {
					used++
				}
			}
			if s.UsedServers() != used {
				t.Fatalf("%s: after vm %d, UsedServers = %d, pools say %d", name, id, s.UsedServers(), used)
			}
		}
		if placed == 0 || rejected == 0 {
			t.Errorf("%s: vacuous run: %d placed, %d rejected", name, placed, rejected)
		}
	}
}

// BenchmarkPlace times one Place (plus the Remove that restores the
// fleet) at three fleet sizes, on an empty fleet and on one whose first
// 70% of servers are packed full the way best-fit leaves them — a probe
// meets mostly-infeasible servers first and pristine ones after.
func BenchmarkPlace(b *testing.B) {
	for _, servers := range []int{64, 1000, 16000} {
		for _, occupied := range []float64{0, 0.7} {
			b.Run(fmt.Sprintf("servers=%d/occupied=%.0f%%", servers, 100*occupied), func(b *testing.B) {
				s, err := New(smallFleet(servers), w6)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(9))
				// Pack server by server (PlaceAt, no scans) until each has
				// turned away four VMs in a row.
				for srv, id := 0, 0; srv < int(occupied*float64(servers)); srv++ {
					for misses := 0; misses < 4; id++ {
						if s.PlaceAt(randomCVM(b, rng, id), srv) != nil {
							misses++
						}
					}
				}
				probes := make([]*coachvm.CVM, 256)
				for i := range probes {
					probes[i] = randomCVM(b, rng, 1<<30+i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					vm := probes[i%len(probes)]
					if _, ok := s.Place(vm); !ok {
						b.Fatal("probe rejected")
					}
					s.Remove(vm.ID)
				}
			})
		}
	}
}
