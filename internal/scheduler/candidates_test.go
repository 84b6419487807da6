package scheduler

import (
	"sort"
	"testing"
)

// equalScoreFleet places VMs so several servers end up with identical
// packed fractions, exercising the stable-ordering guarantee.
func equalScoreFleet(t *testing.T) (*Scheduler, int) {
	t.Helper()
	const servers = 12
	s := mustScheduler(t, smallFleet(servers))
	// Identical load on pairs of servers: equal packScores within a pair.
	for i := 0; i < servers; i++ {
		if _, ok := s.Place(guaranteedVM(100+i, float64(1+(i/2)), 4)); !ok {
			t.Fatalf("fixture VM %d did not place", i)
		}
	}
	return s, servers
}

// TestCandidatesIntoMatchesCandidates pins CandidatesInto (stable sort,
// scratch-backed) to the sort.SliceStable reference ranking,
// including ties: equal scores must keep ascending server order.
func TestCandidatesIntoMatchesCandidates(t *testing.T) {
	s, _ := equalScoreFleet(t)
	for _, exclude := range []int{-1, 0, 5} {
		vm := guaranteedVM(1, 2, 8)
		// Reference: the pre-refactor ranking, rebuilt inline.
		var want []Candidate
		for i, st := range s.servers {
			if i == exclude || s.Down(i) || !st.Pool.Fits(vm) {
				continue
			}
			want = append(want, Candidate{Server: i, Score: s.packScore(st, vm)})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Score > want[j].Score })

		got := s.CandidatesInto(vm, exclude, nil)
		if len(got) != len(want) {
			t.Fatalf("exclude %d: %d candidates, want %d", exclude, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("exclude %d: candidate %d = %+v, want %+v", exclude, i, got[i], want[i])
			}
		}
		// Scratch reuse returns the same ranking in the same backing array.
		scratch := make([]Candidate, 0, len(s.servers))
		again := s.CandidatesInto(vm, exclude, scratch)
		if &again[0] != &scratch[:1][0] {
			t.Fatalf("exclude %d: CandidatesInto reallocated despite sufficient scratch", exclude)
		}
		for i := range want {
			if again[i] != want[i] {
				t.Fatalf("exclude %d: scratch candidate %d = %+v, want %+v", exclude, i, again[i], want[i])
			}
		}
	}
}

// TestCandidatesIntoZeroAllocs is the satellite's allocs/op assertion:
// with a warm scratch the hot enumeration must not allocate at all.
func TestCandidatesIntoZeroAllocs(t *testing.T) {
	s, _ := equalScoreFleet(t)
	vm := guaranteedVM(2, 2, 8)
	scratch := make([]Candidate, 0, len(s.servers))
	if allocs := testing.AllocsPerRun(100, func() {
		scratch = s.CandidatesInto(vm, -1, scratch)[:0]
	}); allocs != 0 {
		t.Errorf("CandidatesInto allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkCandidates quantifies the scratch variant against the
// allocating one on the same fleet.
func BenchmarkCandidates(b *testing.B) {
	s, err := New(smallFleet(64), w6)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		s.Place(guaranteedVM(100+i, float64(1+i%4), 4))
	}
	vm := guaranteedVM(1, 2, 8)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.CandidatesInto(vm, -1, nil)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		scratch := make([]Candidate, 0, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scratch = s.CandidatesInto(vm, -1, scratch)[:0]
		}
	})
}
