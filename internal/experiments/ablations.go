package experiments

import (
	"fmt"
	"time"

	"github.com/coach-oss/coach/internal/mlforest"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/report"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/sim"
	"github.com/coach-oss/coach/internal/timeseries"
)

func init() {
	register(Experiment{
		ID:    "abl-windows",
		Title: "Ablation: scheduler window count vs. capacity and violations",
		PaperClaim: "Savings grow with window count and plateau around 6x4h " +
			"(Fig. 11's trend, measured end-to-end through the scheduler)",
		Run: runAblWindows,
	})
	register(Experiment{
		ID:    "abl-percentile",
		Title: "Ablation: prediction percentile vs. capacity and violations",
		PaperClaim: "Lower percentiles pack more VMs at the cost of more memory " +
			"violations (the Coach -> AggrCoach trend of Fig. 20)",
		Run: runAblPercentile,
	})
	register(Experiment{
		ID:    "abl-forest",
		Title: "Ablation: forest size vs. prediction error and training time",
		PaperClaim: "Returns diminish beyond a few dozen trees; training cost " +
			"grows linearly (maintainability/simplicity discussion of §3.5)",
		Run: runAblForest,
	})
}

func runAblWindows(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	fleet, err := c.CapacityFleet(0.55)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Coach policy capacity by windows per day",
		Headers: []string{"windows", "VMs placed", "placed %", "CPU viol %", "mem viol %"},
	}
	for _, perDay := range []int{1, 2, 4, 6, 8, 12} {
		cfg := sim.ConfigForPolicy(scheduler.PolicyCoach)
		cfg.Windows = timeseries.Windows{PerDay: perDay}
		cfg.TrainUpTo = tr.Horizon / 2
		res, err := sim.Run(tr, fleet, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(cfg.Windows.String(), res.Placed, 100*res.PlacedFrac(),
			100*res.CPUViolationFrac(), 100*res.MemViolationFrac())
	}
	return []*report.Table{t}, nil
}

func runAblPercentile(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	fleet, err := c.CapacityFleet(0.55)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Coach policy capacity by prediction percentile",
		Headers: []string{"percentile", "VMs placed", "placed %", "CPU viol %", "mem viol %", "under-alloc mem %"},
	}
	for _, pct := range []float64{50, 65, 75, 85, 90, 95} {
		cfg := sim.ConfigForPolicy(scheduler.PolicyCoach)
		cfg.Percentile = pct
		cfg.TrainUpTo = tr.Horizon / 2
		res, err := sim.Run(tr, fleet, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("P%.0f", pct), res.Placed, 100*res.PlacedFrac(),
			100*res.CPUViolationFrac(), 100*res.MemViolationFrac(),
			100*res.UnderAllocFrac(resources.Memory))
	}
	return []*report.Table{t}, nil
}

func runAblForest(c *Context) ([]*report.Table, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Prediction quality by forest size (memory, P95)",
		Headers: []string{"trees", "train time", "model size", "mean |pred-actual| peak (pts)"},
	}
	for _, trees := range []int{5, 10, 20, 40, 80} {
		cfg := predict.DefaultLongTermConfig()
		cfg.Forest = mlforest.ForestConfig{Trees: trees, Tree: cfg.Forest.Tree, Seed: 1}
		start := time.Now()
		model, err := predict.TrainLongTerm(tr, tr.Horizon/2, cfg)
		if err != nil {
			return nil, err
		}
		dur := time.Since(start)

		// Evaluate on second-week VMs: absolute error of the predicted
		// lifetime-max memory fraction vs. actual.
		var sumErr float64
		var n int
		for i := range tr.VMs {
			vm := &tr.VMs[i]
			if vm.Start < tr.Horizon/2 || !vm.LongRunning() {
				continue
			}
			pred, ok := model.Predict(tr, vm)
			if !ok {
				continue
			}
			var predMax float64
			for _, v := range pred.Max[resources.Memory] {
				if v > predMax {
					predMax = v
				}
			}
			actual := vm.Util[resources.Memory].Max()
			d := predMax - actual
			if d < 0 {
				d = -d
			}
			sumErr += 100 * d
			n++
		}
		meanErr := 0.0
		if n > 0 {
			meanErr = sumErr / float64(n)
		}
		t.AddRow(trees, dur.Round(time.Millisecond).String(), fmtBytes(model.MemoryBytes()), meanErr)
	}
	return []*report.Table{t}, nil
}
