// Package experiments contains one registered, runnable experiment per
// table and figure of the paper (plus ablations), producing printable
// tables. The cmd/ tools, the benchmark harness and EXPERIMENTS.md are all
// generated from this registry, so every number reported anywhere comes
// from the same code path.
package experiments

import (
	"fmt"
	"sync"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/sim"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

// Scale selects the input sizes experiments run at.
type Scale int

const (
	// ScaleSmall is sized for unit tests and quick benchmarks.
	ScaleSmall Scale = iota
	// ScaleMedium is the default for the cmd/ tools.
	ScaleMedium
	// ScaleFull is the largest laptop-friendly configuration.
	ScaleFull
)

func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale converts a string flag into a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (small|medium|full)", s)
	}
}

// ScenarioSpec rescales a workload spec's population to this scale,
// leaving its shape (classes, seasonality, surges) untouched. The cmd/
// tools (including coachd and coach-loadgen) use it so every entry point
// at a given scale serves the exact trace the tests and benchmarks use.
func (s Scale) ScenarioSpec(sp *scenario.Spec) *scenario.Spec {
	switch s {
	case ScaleSmall:
		return sp.Scaled(500, 50)
	case ScaleMedium:
		return sp.Scaled(1500, 100)
	default:
		return sp.Scaled(3000, 150)
	}
}

// Context carries lazily built, cached artifacts shared across
// experiments: the synthetic trace, fleets, and trained predictors. It is
// safe for concurrent use, so independent experiments can run in parallel
// over one context (cmd/coach-experiments -parallel); cached artifacts are
// built at most once and shared read-only afterwards.
type Context struct {
	Scale Scale

	// spec is the workload scenario, already rescaled to Scale, that the
	// context's trace comes from; every experiment, fleet sizing and
	// model in the context follows it.
	spec *scenario.Spec

	mu     sync.Mutex
	tr     *trace.Trace
	models map[float64]*predict.LongTerm
}

// NewContext creates an empty context whose trace is sp rescaled to
// scale (Scale.ScenarioSpec); a nil sp is the capacity preset. cmd tools
// expose sp as -preset.
func NewContext(scale Scale, sp *scenario.Spec) *Context {
	if sp == nil {
		var err error
		if sp, err = scenario.Preset("capacity"); err != nil {
			panic(err)
		}
	}
	return &Context{Scale: scale, spec: scale.ScenarioSpec(sp), models: make(map[float64]*predict.LongTerm)}
}

// Trace returns the context's trace, generating it on first use.
func (c *Context) Trace() (*trace.Trace, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traceLocked()
}

func (c *Context) traceLocked() (*trace.Trace, error) {
	if c.tr == nil {
		tr, err := trace.GenerateScenario(c.spec)
		if err != nil {
			return nil, err
		}
		c.tr = tr
	}
	return c.tr, nil
}

// Model returns a long-term predictor trained on the trace's first week at
// the given percentile, caching per percentile.
func (c *Context) Model(percentile float64) (*predict.LongTerm, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.models[percentile]; ok {
		return m, nil
	}
	tr, err := c.traceLocked()
	if err != nil {
		return nil, err
	}
	cfg := predict.DefaultLongTermConfig()
	cfg.Percentile = percentile
	m, err := predict.TrainLongTerm(tr, trainUpTo(tr), cfg)
	if err != nil {
		return nil, err
	}
	c.models[percentile] = m
	return m, nil
}

// shareModel puts a sim.Run config on the context's train/evaluate split
// and gives it the cached model Run would otherwise train for itself:
// one at cfg.Percentile, for a policy that predicts with the default
// windows.
func (c *Context) shareModel(cfg *sim.Config) error {
	tr, err := c.Trace()
	if err != nil {
		return err
	}
	cfg.TrainUpTo = trainUpTo(tr)
	if cfg.Policy == scheduler.PolicyNone || cfg.Windows != predict.DefaultLongTermConfig().Windows {
		return nil
	}
	cfg.Model, err = c.Model(cfg.Percentile)
	return err
}

// trainUpTo is the train/evaluate split: the first half of the trace
// (one week of the default two).
func trainUpTo(tr *trace.Trace) int { return tr.Horizon / 2 }

// Fleet builds a ten-cluster fleet with the given servers per cluster.
func (c *Context) Fleet(serversPer int) *cluster.Fleet {
	return cluster.NewFleet(cluster.DefaultClusters(serversPer))
}

// CapacityFleet sizes a fleet so its total CPU capacity is roughly frac of
// the peak allocated demand during the evaluation period — the fixed fleet
// the Fig. 20 capacity comparison packs VMs into. frac < 1 makes the None
// policy reject a meaningful share of arrivals. Servers are drawn from the
// ten cluster configurations round-robin until the target is met.
func (c *Context) CapacityFleet(frac float64) (*cluster.Fleet, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	peak := peakAllocated(tr, trainUpTo(tr))
	target := frac * peak[resources.CPU]

	// Draw servers with the memory-rich clusters doubled, so the fixed
	// fleet starts out CPU-bound like the paper's clusters (Fig. 5: CPU
	// is the most common bottleneck before oversubscription).
	configs := cluster.DefaultClusters(0)
	for i := range configs {
		configs[i].Servers = 0
	}
	order := []int{0, 2, 6, 8, 0, 5, 6, 8, 3, 9, 0, 6, 8, 1, 4, 7}
	var total float64
	for i := 0; total < target; i++ {
		cc := &configs[order[i%len(order)]]
		cc.Servers++
		total += cc.Spec.Capacity[resources.CPU]
	}
	var nonEmpty []cluster.Config
	for _, cc := range configs {
		if cc.Servers > 0 {
			nonEmpty = append(nonEmpty, cc)
		}
	}
	return cluster.NewFleet(nonEmpty), nil
}

// peakAllocated returns the element-wise peak of summed VM allocations
// over the evaluation period, sampled hourly.
func peakAllocated(tr *trace.Trace, from int) resources.Vector {
	var peak resources.Vector
	for t := from; t < tr.Horizon; t += timeseries.SamplesPerHour {
		var sum resources.Vector
		for i := range tr.VMs {
			if tr.VMs[i].AliveAt(t) {
				sum = sum.Add(tr.VMs[i].Alloc)
			}
		}
		peak = peak.Max(sum)
	}
	return peak
}
