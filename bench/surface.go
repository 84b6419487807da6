package main

import (
	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/fault"
	"github.com/coach-oss/coach/internal/memsim"
	"github.com/coach-oss/coach/internal/mlforest"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/scenario"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/serve"
	"github.com/coach-oss/coach/internal/sim"
	"github.com/coach-oss/coach/internal/trace"
)

// The program under test, as the benchmark sees it. Every call bench/
// makes into internal/... is one of the entry points pinned below, so a
// later PR that renames, re-types or deletes one of them breaks this
// file first and has to say so. Nothing ROADMAP items 2–3 plan to delete
// is here (surface_test.go greps for those names), and bench/ never sets
// a batching or engine option: a changed default is measured, not masked.
//
// Beyond the list in the issue, the benchmark needs Fleet.Shards (shard
// sizes for fault.Compile and the data-plane probe), DataPlane.SetWSS,
// memsim.NewVMMem/VMMem.SetWSS and mlforest.NewRowMatrix/SetRow (without
// them the tick and matrix probes would time empty work), and
// serve.NewModelCache (repetitions share one trained model).
var (
	_ = scenario.Preset
	_ = (*scenario.Spec).Scaled

	_ = trace.GenerateScenario

	_ = fault.Compile

	_ = cluster.DefaultClusters
	_ = cluster.NewFleet
	_ = (*cluster.Fleet).Shards

	_ = predict.DefaultLongTermConfig
	_ = predict.TrainLongTerm
	_ = (*predict.LongTerm).Predict
	_ = (*predict.LongTerm).PredictBatchInto
	_ = (*predict.LongTerm).MemoryBytes

	_ = mlforest.DefaultForestConfig
	_ = mlforest.TraceLikeSamples
	_ = mlforest.Train
	_ = mlforest.NewRowMatrix
	_ = (*mlforest.RowMatrix).SetRow
	_ = (*mlforest.Forest).Predict
	_ = (*mlforest.Forest).PredictMatrix

	_ = scheduler.New
	_ = scheduler.BuildCVM
	_ = (*scheduler.Scheduler).Place
	_ = (*scheduler.Scheduler).Remove

	_ = core.DefaultDataPlaneConfig
	_ = core.NewDataPlane
	_ = (*core.DataPlane).Attach
	_ = (*core.DataPlane).Detach
	_ = (*core.DataPlane).SetWSS
	_ = (*core.DataPlane).Tick

	_ = memsim.DefaultConfig
	_ = memsim.NewServer
	_ = memsim.NewVMMem
	_ = (*memsim.VMMem).SetWSS
	_ = (*memsim.Server).AddVM
	_ = (*memsim.Server).Tick

	_ = serve.DefaultConfig
	_ = serve.NewModelCache
	_ = serve.New
	_ = (*serve.Service).Warm
	_ = (*serve.Service).Handler
	_ = (*serve.Service).Admit
	_ = (*serve.Service).Release
	_ = (*serve.Service).Predict
	_ = (*serve.Service).Report
	_ = (*serve.Service).TickDataPlane
	_ = (*serve.Service).Stats
	_ = (*serve.Service).Close

	_ = sim.ConfigForPolicy
	_ = sim.Run
)
