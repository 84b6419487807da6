package scheduler

import (
	"sort"
	"testing"

	"github.com/coach-oss/coach/internal/coachvm"
)

// cand is one feasible server with its best-fit score.
type cand struct {
	server int
	score  float64
}

// ranked is the best-fit ranking, kept as the tests' oracle: every
// feasible server except exclude (-1 = none), score descending, ties on
// the lowest index (a stable sort of the ascending scan). Place takes its
// head, and core.Rollout.Pick must agree with it without sorting.
func ranked(s *Scheduler, vm *coachvm.CVM, exclude int) []cand {
	var out []cand
	for i := 0; i < s.NumServers(); i++ {
		if sc := s.scoreOn(i, vm); sc >= 0 && i != exclude {
			out = append(out, cand{i, sc})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].score > out[b].score })
	return out
}

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
