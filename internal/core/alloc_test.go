//go:build !race

// The race detector's instrumentation changes what escapes and
// allocates, so this steady-state allocation bound only builds without it.

package core

import (
	"testing"

	"github.com/coach-oss/coach/internal/agent"
)

// TestDataPlaneTickAllocFree pins that a steady-state round — every
// attached VM's working set moves, then every server runs a full memsim
// and agent tick — allocates nothing: the attachment table, the member
// arrays and the tick frames are all reused.
func TestDataPlaneTickAllocFree(t *testing.T) {
	dp := dpFixture(t, 3, agent.PolicyTrim, 0.25, 0.1)
	var ids []int
	for srv := 0; srv < 3; srv++ {
		for i := 0; i < 4; i++ {
			id := 4*srv + i
			if err := dp.Attach(srv, id, 8, 2); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	wss := 3.0
	round := func() {
		wss = 7 - wss // 3 ↔ 4 GB: every round changes every working set
		for _, id := range ids {
			dp.SetWSS(id, wss)
		}
		if _, _, err := dp.Tick(DataPlaneTickSeconds); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		round()
	}
	ticks := dp.Servers()[0].Server.TickCount()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Errorf("SetWSS + Tick round allocates %v times", n)
	}
	if got := dp.Servers()[0].Server.TickCount() - ticks; got != 51 {
		t.Errorf("%d full ticks in 51 rounds: the rounds were skipped, not ticked", got)
	}
	if c := dp.Counters(); c.Contentions != 0 {
		t.Errorf("fixture regression: %d contentions (the agent's mitigation pass allocates)", c.Contentions)
	}
}
