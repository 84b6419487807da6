package serve

import (
	"testing"

	"github.com/coach-oss/coach/internal/cluster"
)

// TestAdmissionScoresCandidatesInOneBatch is the acceptance test for the
// batched what-if scoring path: an admission decision costs one forest
// evaluation of the VM (however many candidate servers exist) plus one
// batched what-if sweep over the whole candidate ranking. Growing the
// fleet 8x must grow only the candidates-per-sweep, never the forest
// passes or the sweep count.
func TestAdmissionScoresCandidatesInOneBatch(t *testing.T) {
	tr := getTrace(t)
	cache := NewModelCache()
	mkService := func(serversPer int) *Service {
		sc := DefaultConfig()
		sc.Cache = cache
		sc.DataPlane = true
		sc.AdmitPressureFrac = 0.99
		svc, err := New(tr, cluster.NewFleet(cluster.DefaultClusters(serversPer)), sc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		return svc
	}
	small := mkService(2)
	big := mkService(16)

	model, err := small.modelFor()
	if err != nil {
		t.Fatal(err)
	}
	vms := evalVMs(tr)
	if len(vms) > 12 {
		vms = vms[:12]
	}

	// The services share one cached model, so forest counters are measured
	// as sequential deltas: small fleet first, then the 8x fleet.
	base := model.InferenceStats()
	for _, vm := range vms {
		if _, err := small.Admit(vm); err != nil {
			t.Fatal(err)
		}
	}
	afterSmall := model.InferenceStats()
	for _, vm := range vms {
		if _, err := big.Admit(vm); err != nil {
			t.Fatal(err)
		}
	}
	afterBig := model.InferenceStats()

	passesSmall := afterSmall.Passes - base.Passes
	passesBig := afterBig.Passes - afterSmall.Passes
	if passesSmall != passesBig {
		t.Errorf("forest passes depend on fleet size: %d on 2 servers/cluster, %d on 16",
			passesSmall, passesBig)
	}
	if passesSmall == 0 {
		t.Fatal("fixture regression: admissions never consulted the forest")
	}

	smallDP := small.Stats().DataPlane
	bigDP := big.Stats().DataPlane
	if smallDP.WhatIfBatches == 0 {
		t.Fatal("fixture regression: no admission took the pressure-scored path")
	}
	// Same VMs, same decisions to make: the 8x fleet runs the same number
	// of batched sweeps...
	if smallDP.WhatIfBatches != bigDP.WhatIfBatches {
		t.Errorf("what-if batches depend on fleet size: %d vs %d",
			smallDP.WhatIfBatches, bigDP.WhatIfBatches)
	}
	// ...but each sweep covers more candidates.
	if bigDP.WhatIfCandidates <= smallDP.WhatIfCandidates {
		t.Errorf("what-if candidates did not grow with the fleet: %d (2/cluster) vs %d (16/cluster)",
			smallDP.WhatIfCandidates, bigDP.WhatIfCandidates)
	}
	if smallDP.WhatIfCandidates < smallDP.WhatIfBatches {
		t.Errorf("scored %d candidates across %d sweeps: sweeps must cover whole rankings",
			smallDP.WhatIfCandidates, smallDP.WhatIfBatches)
	}
}
