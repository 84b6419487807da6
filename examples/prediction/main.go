// Prediction: train Coach's long-term random-forest predictor on the
// first week of a trace and inspect its per-time-window predictions for a
// second-week VM against what that VM actually did — the workflow behind
// the paper's Fig. 19.
package main

import (
	"fmt"
	"log"

	coach "github.com/coach-oss/coach"
)

func main() {
	cfg := coach.DefaultTraceConfig()
	cfg.VMs = 800
	cfg.Subscriptions = 60
	tr, err := coach.GenerateTrace(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fleet := coach.NewFleet(coach.DefaultClusters(2))
	platform, err := coach.NewPlatform(fleet, coach.DefaultPlatformConfig())
	if err != nil {
		log.Fatal(err)
	}
	trainUpTo := tr.Horizon / 2
	if err := platform.Train(tr, trainUpTo); err != nil {
		log.Fatal(err)
	}

	// Find a long-running second-week VM the model can predict.
	var target *coach.VM
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start >= trainUpTo && vm.LongRunning() {
			if platform.Model().HistoryCount(vm.Subscription) >= 3 {
				target = vm
				break
			}
		}
	}
	if target == nil {
		log.Fatal("no predictable second-week VM found")
	}

	cvm, err := platform.Request(target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VM %d: %v, subscription %d (%d prior VMs)\n",
		target.ID, target.Alloc, target.Subscription,
		platform.Model().HistoryCount(target.Subscription))
	fmt.Printf("guaranteed: %v\n", cvm.Guaranteed)
	fmt.Printf("savings before multiplexing: %v\n\n", cvm.OversubSavings())

	w := cvm.Pred.Windows
	fmt.Printf("memory, %d windows of %.0fh:\n", w.PerDay, w.Hours())
	fmt.Println("window  predicted-P95  predicted-max  actual-max")
	actual := target.Runs.LifetimeWindowMax(w)[coach.Memory]
	for t := 0; t < w.PerDay; t++ {
		fmt.Printf("%3d     %12.0f%%  %12.0f%%  %9.0f%%\n", t,
			100*cvm.Pred.Pct[coach.Memory][t],
			100*cvm.Pred.Max[coach.Memory][t],
			100*actual[t])
	}

	// Aggregate prediction quality over all predictable second-week VMs:
	// does the guaranteed (P95-based) portion cover the VM's actual P95
	// utilization (the Fig. 19 criterion)?
	var covered, under, n int
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start < trainUpTo || !vm.LongRunning() {
			continue
		}
		c, err := platform.Request(vm)
		if err != nil {
			log.Fatal(err)
		}
		if c.OversubSavings().IsZero() {
			continue
		}
		n++
		actualPct := vm.Runs.WindowPercentile(c.Pred.Windows, 95)[coach.Memory]
		var actGuar float64
		for _, v := range actualPct {
			if v > actGuar {
				actGuar = v
			}
		}
		if c.Pred.PADemandFrac(coach.Memory) >= actGuar {
			covered++
		} else {
			under++
		}
	}
	fmt.Printf("\nsecond-week VMs with predictions: %d (guaranteed portion covers actual P95 for %d, under-allocates %d)\n",
		n, covered, under)
}
