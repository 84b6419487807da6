package sim

import (
	"github.com/coach-oss/coach/internal/coachvm"
	"github.com/coach-oss/coach/internal/par"
	"github.com/coach-oss/coach/internal/predict"
	"github.com/coach-oss/coach/internal/timeseries"
	"github.com/coach-oss/coach/internal/trace"
)

// The replay's per-arrival work that reads only the trace, the model and
// the config runs in two phases around the tick loop. Each phase item
// writes only its own slots and a prediction does not depend on what it
// is batched with, so both phases run on every core and the Result stays
// byte-identical for any worker count (docs/DESIGN.md §6).

// lookAhead is how many slots one phase item covers: the arrivals one
// forest pass predicts, or the VMs one judging item scores.
const lookAhead = 64

// span is one phase item: slots [lo, hi) of shard s.
type span struct{ s, lo, hi int }

// spans cuts every shard's n(i) slots into runs of lookAhead, shard by
// shard.
func spans(shards int, n func(i int) int) []span {
	var out []span
	for i := 0; i < shards; i++ {
		for lo, m := 0, n(i); lo < m; lo += lookAhead {
			out = append(out, span{i, lo, min(lo+lookAhead, m)})
		}
	}
	return out
}

// arrivalPhase fills every shard's arrival slots in event order: one
// PredictBatchInto per span (none without a model, leaving every slot
// unpredicted) and each VM's run cursor, on the run holding its arrival
// sample.
func arrivalPhase(states []*shardState, tr *trace.Trace, model *predict.LongTerm, workers int) {
	vms := make([][]*trace.VM, len(states))
	for i, st := range states {
		for _, ev := range st.events {
			if ev.arrival {
				vms[i] = append(vms[i], ev.vm)
			}
		}
		st.preds = make([]coachvm.Prediction, len(vms[i]))
		st.oks = make([]bool, len(vms[i]))
		st.cursors = make([]timeseries.Cursor, len(vms[i]))
	}
	items := spans(len(states), func(i int) int { return len(vms[i]) })
	par.ForEach(workers, len(items), func(k int) {
		it, st := items[k], states[items[k].s]
		batch := vms[it.s][it.lo:it.hi]
		if model != nil {
			model.PredictBatchInto(tr, batch, st.preds[it.lo:it.hi], st.oks[it.lo:it.hi])
		}
		for j, vm := range batch {
			st.cursors[it.lo+j] = vm.Runs.CursorAt(vm.Start, max(vm.Start, st.cfg.TrainUpTo))
		}
	})
}

// judgement is one placed, oversubscribed VM awaiting its outcome. It
// keeps the CVM because the outcome judges the prediction as allocated:
// PolicySingle's CVM carries collapsed windows, not the raw prediction.
type judgement struct {
	vm  *trace.VM
	cvm *coachvm.CVM
}

// judgePhase computes every shard's outcomes, in arrival order, after
// the replay.
func judgePhase(states []*shardState, cfg Config) {
	for _, st := range states {
		st.sr.outcomes = make([]VMOutcome, len(st.judged))
	}
	items := spans(len(states), func(i int) int { return len(states[i].judged) })
	par.ForEach(cfg.Workers, len(items), func(k int) {
		it, st := items[k], states[items[k].s]
		for j := it.lo; j < it.hi; j++ {
			st.sr.outcomes[j] = outcome(st.judged[j].vm, st.judged[j].cvm, cfg)
		}
	})
}
