package sim

import (
	"runtime"

	"github.com/coach-oss/coach/internal/timing"
)

// The stages a timed Run records (Config.Timings). Trace synthesis is a
// root of its own, since callers usually generate the trace before Run;
// run is the rest of Run. The tick loop's placement, delta-pass,
// data-plane and contention stages run on the shard workers: each is
// their summed time divided by the number of workers that replayed side
// by side, so the loop's children add up to its wall time and fork/join
// wait is what they leave — forking and joining the workers and waiting
// for the slowest shard.
const (
	// StageTrace is trace synthesis, a root: Run records it when it
	// generates the trace from Config.Scenario, and a caller that
	// generates the trace itself may record it with timing.Tree.Alloc.
	StageTrace = iota
	stageRun
	stageTrain
	stageBuild
	stageArrivals
	stageTicks
	stagePlacement
	stageDeltaPass
	stageDataPlane
	stageContention
	stageExchange
	stageForkJoin
	stageJudging
)

var stages = []timing.Stage{
	StageTrace:      {Name: "trace", Parent: -1},
	stageRun:        {Name: "run", Parent: -1},
	stageTrain:      {Name: "train", Parent: stageRun},
	stageBuild:      {Name: "build shards", Parent: stageRun},
	stageArrivals:   {Name: "arrival phase", Parent: stageRun},
	stageTicks:      {Name: "tick loop", Parent: stageRun},
	stagePlacement:  {Name: "placement", Parent: stageTicks},
	stageDeltaPass:  {Name: "delta pass", Parent: stageTicks},
	stageDataPlane:  {Name: "data-plane tick", Parent: stageTicks},
	stageContention: {Name: "contention", Parent: stageTicks},
	stageExchange:   {Name: "exchange", Parent: stageTicks},
	stageForkJoin:   {Name: "fork/join wait", Parent: stageTicks},
	stageJudging:    {Name: "judging phase", Parent: stageRun},
}

// NewTimings returns an empty tree of Run's stages, for Config.Timings.
func NewTimings() *timing.Tree { return timing.New(stages) }

// forkJoin records the tick loop's shard laps and its fork/join wait:
// wall is the time the loop spent inside par.ForEach, over calls forks.
func forkJoin(cfg Config, states []*shardState, wall, calls int64) {
	tm := cfg.Timings
	if tm == nil {
		return
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	w = max(1, min(w, len(states)))
	for _, st := range states {
		tm.Merge(st.laps, int64(w))
		wall -= st.laps.Total() / int64(w)
	}
	tm.Add(stageForkJoin, wall, calls)
}
