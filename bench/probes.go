package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/coach-oss/coach/internal/cluster"
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/core"
	"github.com/coach-oss/coach/internal/memsim"
	"github.com/coach-oss/coach/internal/mlforest"
	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/scheduler"
	"github.com/coach-oss/coach/internal/trace"
)

// Probes time calls into single layers on the workload's own inputs.
// Each reports a median over many calls, and each call is one span under
// the "probe" root, so the span file shows what a number was made of.

// sample times one call as a child span and appends its duration in the
// given unit (ns per unit) to xs.
func sample(tb *spanBuf, parent int64, name string, unit float64, xs *[]float64, fn func()) {
	*xs = append(*xs, float64(tb.timed(parent, name, fn).Nanoseconds())/unit)
}

const (
	nsPerUs = 1e3
	nsPerMs = 1e6
)

// probePredict times the model alone over every evaluation-period
// arrival: one Predict per VM, then the same VMs in batches of 64.
func probePredict(in *inputs, tb *spanBuf, parent int64, m map[string]float64) {
	m["predict.model_mb"] = float64(in.model.MemoryBytes()) / (1 << 20)
	var single []float64
	for _, vm := range in.evalVMs {
		vm := vm
		sample(tb, parent, "predict.Predict", nsPerUs, &single, func() { in.model.Predict(in.tr, vm) })
	}
	m["predict.single_us_per_vm"] = median(single)

	const batch = 64
	preds, oks := make([]coachvm.Prediction, batch), make([]bool, batch)
	var batched []float64
	for lo := 0; lo+batch <= len(in.evalVMs); lo += batch {
		vms := in.evalVMs[lo : lo+batch]
		sample(tb, parent, "predict.PredictBatchInto", nsPerUs*batch, &batched, func() {
			in.model.PredictBatchInto(in.tr, vms, preds, oks)
		})
	}
	m["predict.batch64_us_per_vm"] = median(batched)
}

// probeForest trains the default forest on the fixed trace-like set and
// times one-row walks against 64-row matrix passes over the same rows.
func probeForest(tb *spanBuf, parent int64, m map[string]float64) error {
	samples := mlforest.TraceLikeSamples(20000, 1)
	var forest *mlforest.Forest
	var err error
	m["mlforest.train_s"] = tb.timed(parent, "mlforest.Train", func() {
		forest, err = mlforest.Train(samples, mlforest.DefaultForestConfig())
	}).Seconds()
	if err != nil {
		return err
	}
	const batch, rows = 64, 4096
	var walk, matrix []float64
	mat := mlforest.NewRowMatrix(batch, len(samples[0].Features))
	out := make([]float64, batch)
	var sink float64
	for lo := 0; lo < rows; lo += batch {
		chunk := samples[lo : lo+batch]
		sample(tb, parent, "mlforest.Predict x64", batch, &walk, func() {
			for i := range chunk {
				sink += forest.Predict(chunk[i].Features)
			}
		})
		for i := range chunk {
			mat.SetRow(i, chunk[i].Features)
		}
		sample(tb, parent, "mlforest.PredictMatrix b64", batch, &matrix, func() { forest.PredictMatrix(mat, out) })
		for i := range chunk {
			sink -= out[i]
		}
	}
	if math.Abs(sink) > 1e-6*rows {
		return fmt.Errorf("mlforest: walk and matrix predictions differ by %g over %d rows", sink, rows)
	}
	m["mlforest.walk_b1_ns_per_row"] = median(walk)
	m["mlforest.matrix_b64_ns_per_row"] = median(matrix)
	return nil
}

// probeShard replays cluster 0's share of the evaluation period through
// one scheduler and one data plane of the workload's shard shape, so
// Place, Remove, Attach and Tick are timed at the occupancy the workload
// itself reaches. Halfway through it stops to tick the loaded shard.
func probeShard(in *inputs, tb *spanBuf, parent int64, m map[string]float64) error {
	simCfg, serveCfg := in.simConfig(), in.w.serveConfig()
	shard := cluster.NewFleet(cluster.DefaultClusters(in.w.serversPer)[:1])
	sched, err := scheduler.New(shard, simCfg.Windows)
	if err != nil {
		return err
	}
	dpCfg := core.DefaultDataPlaneConfig()
	dpCfg.Agent.Policy = serveCfg.MitigationPolicy
	if serveCfg.DataPlanePoolFrac > 0 {
		dpCfg.PoolFrac, dpCfg.UnallocFrac = serveCfg.DataPlanePoolFrac, serveCfg.DataPlaneUnallocFrac
	}
	dp, err := core.NewDataPlane(dpCfg, shard.Shards()[0])
	if err != nil {
		return err
	}

	type step struct {
		t      int
		arrive bool
		vm     *trace.VM
	}
	var steps []step
	for _, vm := range in.evalVMs {
		if vm.Cluster%len(in.fleet.Clusters) != 0 {
			continue
		}
		steps = append(steps, step{vm.Start, true, vm})
		if vm.End < in.tr.Horizon {
			steps = append(steps, step{vm.End, false, vm})
		}
	}
	sort.SliceStable(steps, func(i, j int) bool {
		if steps[i].t != steps[j].t {
			return steps[i].t < steps[j].t
		}
		return !steps[i].arrive && steps[j].arrive // departures free room first
	})

	var build, place, remove, attach, detach, tick []float64
	placed := make(map[int]bool)
	mid, ticked := (in.trainUpTo()+in.tr.Horizon)/2, false
	setWSS := func(t int) {
		for id := range placed {
			vm := &in.tr.VMs[id]
			dp.SetWSS(id, vm.Alloc[resources.Memory]*vm.UtilAt(resources.Memory, t))
		}
	}
	for _, st := range steps {
		if !ticked && st.t >= mid {
			ticked = true
			for i := 0; i < 24 && err == nil; i++ {
				setWSS(mid + i)
				sample(tb, parent, "core.DataPlane.Tick", nsPerMs, &tick, func() { _, _, err = dp.Tick(300) })
			}
			if err != nil {
				return err
			}
		}
		vm := st.vm
		if !st.arrive {
			if placed[vm.ID] {
				delete(placed, vm.ID)
				sample(tb, parent, "scheduler.Remove", nsPerUs, &remove, func() { sched.Remove(vm.ID) })
				sample(tb, parent, "core.DataPlane.Detach", nsPerUs, &detach, func() { dp.Detach(vm.ID) })
			}
			continue
		}
		pred, ok := in.model.Predict(in.tr, vm)
		var cvm *coachvm.CVM
		sample(tb, parent, "scheduler.BuildCVM", nsPerUs, &build, func() {
			cvm, err = scheduler.BuildCVM(simCfg.Policy, vm.ID, vm.Alloc, pred, ok, simCfg.Windows)
		})
		if err != nil {
			return err
		}
		srv, fits := 0, false
		sample(tb, parent, "scheduler.Place", nsPerUs, &place, func() { srv, fits = sched.Place(cvm) })
		if !fits {
			continue
		}
		placed[vm.ID] = true
		sample(tb, parent, "core.DataPlane.Attach", nsPerUs, &attach, func() {
			err = dp.Attach(srv, vm.ID, cvm.Alloc[resources.Memory], cvm.Guaranteed[resources.Memory])
		})
		if err != nil {
			return err
		}
	}
	if len(place) == 0 || len(remove) == 0 || len(tick) == 0 {
		return fmt.Errorf("shard probe: %d placements, %d removals, %d ticks on cluster 0", len(place), len(remove), len(tick))
	}
	m["scheduler.build_cvm_us"] = median(build)
	m["scheduler.place_us"] = median(place)
	m["scheduler.remove_us"] = median(remove)
	m["core.dp_attach_us"] = median(attach) + median(detach)
	m["core.dp_tick_ms"] = median(tick)
	return nil
}

// probeMemsim ticks one memsim server holding 16 VMs whose working sets
// drift around the pool limit, so faults, evictions and steals all stay
// on the path.
func probeMemsim(tb *spanBuf, parent int64, m map[string]float64) error {
	const vms = 16
	srv := memsim.NewServer(memsim.DefaultConfig(), 3*vms, 2*vms)
	mems := make([]*memsim.VMMem, vms)
	for i := range mems {
		vm, err := memsim.NewVMMem(i+1, 8, 2)
		if err != nil {
			return err
		}
		if err := srv.AddVM(vm); err != nil {
			return err
		}
		mems[i] = vm
	}
	var tick []float64
	var err error
	for i := 0; i < 2000 && err == nil; i++ {
		for j, vm := range mems {
			vm.SetWSS(4 + 3*math.Sin(float64(i)*0.1) + 0.1*float64(j))
		}
		sample(tb, parent, "memsim.Server.Tick", nsPerUs, &tick, func() { _, err = srv.Tick(300) })
	}
	m["memsim.server_tick_us"] = median(tick)
	return err
}

// probeServe times the service's own methods with a single caller, so
// there is no queueing. Even-numbered evaluation VMs go through direct
// Admit, Report and Release; odd-numbered ones are admitted through the
// HTTP handler, so neither admit path finds the other's VM warm in
// cache and the difference of the two medians is what the handler costs.
// Predict is timed last, over both halves.
func probeServe(in *inputs, tb *spanBuf, parent int64, m map[string]float64) ([]string, error) {
	svc, err := in.newService()
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	vms := in.evalVMs
	if len(vms) > 3000 {
		vms = vms[:3000]
	}
	c := newClient(svc.Handler())
	var admit, release, predict, report, handler []float64
	var violations []string
	for i, vm := range vms {
		vm := vm
		admitted := false
		if i%2 == 1 {
			var out admitOutcome
			sample(tb, parent, "serve.Handler/v1/admit", nsPerUs, &handler, func() { out = c.admit(vm.ID) })
			if out == admitFailed {
				violations = append(violations, fmt.Sprintf("serve probe: admit of VM %d through the handler failed", vm.ID))
			}
			admitted = out == admitPlaced
		} else {
			sample(tb, parent, "serve.Service.Admit", nsPerUs, &admit, func() {
				res, e := svc.Admit(vm)
				admitted, err = res.Admitted, e
			})
			if err != nil {
				return nil, err
			}
		}
		if !admitted {
			continue
		}
		sample(tb, parent, "serve.Service.Report", nsPerUs, &report, func() { _, err = svc.Report(vm, 0.5) })
		if err != nil {
			return nil, err
		}
		sample(tb, parent, "serve.Service.Release", nsPerUs, &release, func() { _, err = svc.Release(vm) })
		if err != nil {
			return nil, err
		}
	}
	for _, vm := range vms {
		vm := vm
		sample(tb, parent, "serve.Service.Predict", nsPerUs, &predict, func() { _, _, err = svc.Predict(vm) })
		if err != nil {
			return nil, err
		}
	}
	violations = append(violations, checkDrained(svc.Stats())...)
	if len(release) == 0 {
		return nil, fmt.Errorf("serve probe: no VM was admitted")
	}
	m["serve.admit_us"] = median(admit)
	m["serve.release_us"] = median(release)
	m["serve.predict_us"] = median(predict)
	m["serve.report_us"] = median(report)
	m["serve.http_overhead_us"] = median(handler) - median(admit)
	return violations, nil
}
