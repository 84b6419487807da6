package scheduler

import "testing"

// TestScoreRowIntoMatchesCandidates pins the dense row form of candidate
// scoring to the ranked oracle: every feasible server carries exactly the
// score it is ranked by, every infeasible or down server is -1, and
// picking the row's max with ties on the lowest index reproduces the top
// of the ranking and Place's choice.
func TestScoreRowIntoMatchesCandidates(t *testing.T) {
	s, servers := equalScoreFleet(t)
	s.SetDown(3, true)
	vm := guaranteedVM(1, 2, 8)

	if got := s.NumServers(); got != servers {
		t.Fatalf("NumServers = %d, want %d", got, servers)
	}
	row := make([]float64, servers)
	s.ScoreRowInto(vm, row)

	cands := ranked(s, vm, -1)
	byServer := make(map[int]float64)
	for _, c := range cands {
		byServer[c.server] = c.score
	}
	for i, sc := range row {
		want, feasible := byServer[i]
		if !feasible {
			if sc >= 0 {
				t.Errorf("server %d: row score %v for a server the ranking excludes", i, sc)
			}
		} else if sc != want {
			t.Errorf("server %d: row score %v, ranked score %v", i, sc, want)
		}
	}

	// Row argmax (strict >, ascending) == ranking head == Place's choice.
	best, bestScore := -1, -1.0
	for i, sc := range row {
		if sc > bestScore {
			best, bestScore = i, sc
		}
	}
	if len(cands) == 0 || cands[0].server != best {
		t.Fatalf("row argmax %d, ranking head %+v", best, cands)
	}
	srv, ok := s.Place(vm)
	if !ok || srv != best {
		t.Fatalf("Place chose %d/%v, row argmax %d", srv, ok, best)
	}

	// After the placement, only the chosen server's cell changes.
	after := make([]float64, servers)
	s.ScoreRowInto(vm, after)
	for i := range row {
		if i == srv {
			continue
		}
		if after[i] != row[i] {
			t.Errorf("server %d: score changed %v -> %v though only %d was placed on", i, row[i], after[i], srv)
		}
	}
	if after[srv] == row[srv] && after[srv] >= 0 {
		// The committed server must re-score (fuller pool) or become
		// infeasible; identical scores would mean the placement was free.
		t.Errorf("server %d: score unchanged at %v after placement", srv, after[srv])
	}
}
