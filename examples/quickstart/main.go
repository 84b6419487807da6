// Quickstart: generate a synthetic trace, train Coach's prediction model,
// schedule arriving VMs onto a fleet with time-window oversubscription,
// and report how much extra capacity Coach unlocked.
package main

import (
	"fmt"
	"log"

	coach "github.com/coach-oss/coach"
)

func main() {
	// 1. Generate an Azure-like trace: two weeks, ten clusters.
	cfg := coach.DefaultTraceConfig()
	cfg.VMs = 800
	cfg.Subscriptions = 60
	tr, err := coach.GenerateTrace(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d VMs over %d days, %d long-running\n",
		len(tr.VMs), tr.Days(), len(tr.LongRunning()))

	// 2. Build a small fleet and the Coach control plane.
	fleet := coach.NewFleet(coach.DefaultClusters(2))
	platform, err := coach.NewPlatform(fleet, coach.DefaultPlatformConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Train the long-term predictor on the first week.
	trainUpTo := tr.Horizon / 2
	if err := platform.Train(tr, trainUpTo); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predictor: trained on %d rows\n", platform.Model().TrainRows())

	// 4. Schedule second-week arrivals as CoachVMs.
	var placed, rejected, oversubscribed int
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.End <= trainUpTo {
			continue
		}
		cvm, err := platform.Request(vm)
		if err != nil {
			log.Fatal(err)
		}
		if _, ok := platform.Place(cvm); ok {
			placed++
			if !cvm.OversubSavings().IsZero() {
				oversubscribed++
			}
		} else {
			rejected++
		}
	}
	fmt.Printf("scheduling: placed %d VMs (%d oversubscribed), rejected %d\n",
		placed, oversubscribed, rejected)
	fmt.Printf("fleet: %d/%d servers in use\n",
		platform.Scheduler().UsedServers(), len(fleet.Servers))

	// 5. How much memory did multiplexing the oversubscribed portions
	// save across the fleet?
	var multiplexSavedGB float64
	for _, st := range platform.Scheduler().Servers() {
		multiplexSavedGB += st.Pool.MultiplexSavings()[coach.Memory]
	}
	fmt.Printf("multiplexing: %.1f GB of memory saved by pooling VA demands\n",
		multiplexSavedGB)
}
