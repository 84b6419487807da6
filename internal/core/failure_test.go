package core

import (
	"testing"

	"github.com/coach-oss/coach/internal/agent"
)

// TestCrashServerEvictsAndReboots pins the data-plane half of crash
// handling: evicted ids come back ascending, their memory is gone, other
// servers are untouched, and the crashed server reboots attachable.
func TestCrashServerEvictsAndReboots(t *testing.T) {
	dp := dpFixture(t, 2, agent.PolicyTrim, 0.25, 0.1)
	for i, srv := range []int{0, 0, 1} {
		if err := dp.Attach(srv, 10+i, 8, 2); err != nil {
			t.Fatal(err)
		}
	}
	dp.SetWSS(11, 6)

	evicted := dp.CrashServer(0)
	if len(evicted) != 2 || evicted[0] != 10 || evicted[1] != 11 {
		t.Fatalf("evicted = %v, want ascending [10 11]", evicted)
	}
	if dp.ServerOf(10) != -1 || dp.ServerOf(11) != -1 {
		t.Error("evicted VMs still attached")
	}
	if dp.ServerOf(12) != 1 {
		t.Error("crash touched the surviving server's VM")
	}
	// Reboot leaves the server attachable; re-admission works.
	if err := dp.Attach(0, 10, 8, 2); err != nil {
		t.Fatalf("re-attach after crash: %v", err)
	}
	// Out-of-range crashes are inert.
	if got := dp.CrashServer(-1); got != nil {
		t.Fatalf("CrashServer(-1) = %v", got)
	}
	if got := dp.CrashServer(9); got != nil {
		t.Fatalf("CrashServer(9) = %v", got)
	}
}

// TestPickRecovery pins recovery placement (RecoveryTarget): the
// pressure-filtered pick wins when one exists, the least-pressured
// feasible server is the fallback, and an infeasible VM is reported lost.
func TestPickRecovery(t *testing.T) {
	cfg := DefaultMigrationConfig()
	eng, sched, dp := engineFixture(t, 3, cfg, 0.25)

	// Server 0 down (the crash site), server 1's pool thrashing (working
	// sets far past guarantees), server 2 empty: the pressure filter must
	// steer recovery to 2, not the down server or the hot pool.
	sched.SetDown(0, true)
	for id := 1; id <= 2; id++ {
		place(t, sched, dp, oversubCVM(t, id, 4, 16, 0.5), 1)
		dp.SetWSS(id, 15)
	}
	if _, _, err := dp.Tick(300); err != nil {
		t.Fatal(err)
	}
	if p := dp.PressureOf(1); p < cfg.PressureFrac {
		t.Fatalf("fixture pool not pressured: %.2f < %.2f", p, cfg.PressureFrac)
	}
	if target := eng.RecoveryTarget(oversubCVM(t, 3, 4, 16, 0.5)); target != 2 {
		t.Fatalf("RecoveryTarget = %d, want the empty server 2", target)
	}

	// A VM no surviving server can hold is lost.
	if target := eng.RecoveryTarget(oversubCVM(t, 5, 64, 256, 1)); target >= 0 {
		t.Fatalf("infeasible VM was placed on %d", target)
	}

	// With every pool saturated by a zero pressure budget, the fallback
	// still finds the least-pressured feasible server — the empty one —
	// rather than losing the VM.
	eng.cfg.PressureFrac = 0
	if target := eng.RecoveryTarget(oversubCVM(t, 4, 4, 16, 0.5)); target != 2 {
		t.Fatalf("fallback chose %d, want the least-pressured server 2", target)
	}
}
