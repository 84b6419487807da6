package sim

import "github.com/coach-oss/coach/internal/timing"

// The stages a timed Run records (Config.Timings). Trace synthesis and
// the training a sweep of Runs shares are roots of their own, since
// callers do both before Run; run is the rest of Run. The tick loop's
// placement, delta-pass, data-plane and contention stages run on the
// shard workers: each is their summed time divided by the number of
// workers that replayed side by side, so the loop's children add up to
// its wall time. What they leave is the imbalance — the slowest worker's
// busy time less the mean, per tick when shards exchange and over the
// run when they do not — and the barrier, the rest: starting, waking and
// joining the workers, and the timers' own clock reads inside a shard's
// step.
const (
	// StageTrace is trace synthesis and StageSharedTrain the training of
	// a model passed in as Config.Model: roots that Run never records,
	// which callers time with timing.Tree.Alloc.
	StageTrace = iota
	StageSharedTrain
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
	stageImbalance
	stageBarrier
	stageJudging
)

var stages = []timing.Stage{
	StageTrace:       {Name: "trace", Parent: -1},
	StageSharedTrain: {Name: "shared train", Parent: -1},
	stageRun:         {Name: "run", Parent: -1},
	stageTrain:       {Name: "train", Parent: stageRun},
	stageBuild:       {Name: "build shards", Parent: stageRun},
	stageArrivals:    {Name: "arrival phase", Parent: stageRun},
	stageTicks:       {Name: "tick loop", Parent: stageRun},
	stagePlacement:   {Name: "placement", Parent: stageTicks},
	stageDeltaPass:   {Name: "delta pass", Parent: stageTicks},
	stageDataPlane:   {Name: "data-plane tick", Parent: stageTicks},
	stageContention:  {Name: "contention", Parent: stageTicks},
	stageExchange:    {Name: "exchange", Parent: stageTicks},
	stageImbalance:   {Name: "imbalance", Parent: stageTicks},
	stageBarrier:     {Name: "barrier", Parent: stageTicks},
	stageJudging:     {Name: "judging phase", Parent: stageRun},
}

// NewTimings returns an empty tree of Run's stages, for Config.Timings.
func NewTimings() *timing.Tree { return timing.New(stages) }

// splitWait records the tick loop's shard laps and splits what they
// leave of wall, the time the loop spent stepping shards on w workers
// over calls waits, into imbalance and the barrier, the rest.
func splitWait(tm *timing.Tree, states []*shardState, w int, wall, imbalance, calls int64) {
	if tm == nil {
		return
	}
	for _, st := range states {
		tm.Merge(st.laps, int64(w))
		wall -= st.laps.Total() / int64(w)
	}
	imbalance = max(0, min(imbalance, wall))
	tm.Add(stageImbalance, imbalance, calls)
	tm.Add(stageBarrier, wall-imbalance, calls)
}
