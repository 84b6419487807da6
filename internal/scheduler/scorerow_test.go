package scheduler

import "testing"

// TestScoreRowIntoMatchesCandidates pins the dense row form of candidate
// scoring to the ranked form: every feasible server carries exactly the
// score CandidatesInto ranks it by, every infeasible or down server is -1,
// and picking the row's max with ties on the lowest index reproduces the
// top of the ranking.
func TestScoreRowIntoMatchesCandidates(t *testing.T) {
	s, servers := equalScoreFleet(t)
	s.SetDown(3, true)
	vm := guaranteedVM(1, 2, 8)

	if got := s.NumServers(); got != servers {
		t.Fatalf("NumServers = %d, want %d", got, servers)
	}
	row := make([]float64, servers)
	s.ScoreRowInto(vm, row)

	byServer := make(map[int]float64)
	for _, c := range s.CandidatesInto(vm, -1, nil) {
		byServer[c.Server] = c.Score
	}
	for i, sc := range row {
		want, feasible := byServer[i]
		if !feasible {
			if sc >= 0 {
				t.Errorf("server %d: row score %v for a server Candidates excludes", i, sc)
			}
		} else if sc != want {
			t.Errorf("server %d: row score %v, ranked score %v", i, sc, want)
		}
		if got := s.ScoreAt(vm, i); got != sc {
			t.Errorf("server %d: ScoreAt %v != row %v", i, got, sc)
		}
	}

	// Row argmax (strict >, ascending) == Place's choice.
	best, bestScore := -1, -1.0
	for i, sc := range row {
		if sc > bestScore {
			best, bestScore = i, sc
		}
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
