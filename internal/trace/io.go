package trace

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/timeseries"
)

// diskVM is VM in the on-disk form Save writes: one series per kind.
type diskVM struct {
	ID, Subscription, Config int
	Alloc                    resources.Vector
	Start, End               int
	Offering                 Offering
	Util                     [resources.NumKinds]timeseries.Series
	Cluster                  int
}

// diskTrace is Trace in the form Load decodes.
type diskTrace struct {
	Horizon       int
	StartWeekday  time.Weekday
	Configs       []VMConfig
	Subscriptions []Subscription
	VMs           []diskVM
	Clusters      int
}

// Save serializes the full trace (including utilization series) with
// encoding/gob, each VM's runs expanded into one float series per kind
// (each sample a code's fraction). Use Load to read it back.
func (tr *Trace) Save(w io.Writer) error {
	// gob writes type names, so the on-disk types keep the names the
	// format has always had.
	type VM diskVM
	type Trace struct {
		Horizon       int
		StartWeekday  time.Weekday
		Configs       []VMConfig
		Subscriptions []Subscription
		VMs           []VM
		Clusters      int
	}
	out := Trace{tr.Horizon, tr.StartWeekday, tr.Configs, tr.Subscriptions, make([]VM, len(tr.VMs)), tr.Clusters}
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		out.VMs[i] = VM{ID: vm.ID, Subscription: vm.Subscription, Config: vm.Config, Alloc: vm.Alloc,
			Start: vm.Start, End: vm.End, Offering: vm.Offering, Cluster: vm.Cluster}
		for _, k := range resources.Kinds {
			out.VMs[i].Util[k] = vm.Runs.Series(k, nil)
		}
	}
	return gob.NewEncoder(w).Encode(out)
}

// Load reads a trace written by Save, checks that every sample is a
// fraction in [0,1], rounds the samples to the nearest basis-point code
// (timeseries.NewRuns), run-encodes them and validates the trace. A trace
// Save wrote loads back to the same codes.
func Load(r io.Reader) (*Trace, error) {
	var in diskTrace
	if err := gob.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	tr := &Trace{in.Horizon, in.StartWeekday, in.Configs, in.Subscriptions, make([]VM, len(in.VMs)), in.Clusters}
	for i := range in.VMs {
		d := &in.VMs[i]
		for _, k := range resources.Kinds {
			if len(d.Util[k]) != d.End-d.Start {
				return nil, fmt.Errorf("trace: vm %d %v series has %d samples, want %d", d.ID, k, len(d.Util[k]), d.End-d.Start)
			}
			for _, u := range d.Util[k] {
				// Negated so NaN, which fails every comparison, is rejected too.
				if !(u >= 0 && u <= 1) {
					return nil, fmt.Errorf("trace: vm %d %v utilization %f outside [0,1]", d.ID, k, u)
				}
			}
		}
		tr.VMs[i] = VM{ID: d.ID, Subscription: d.Subscription, Config: d.Config, Alloc: d.Alloc,
			Start: d.Start, End: d.End, Offering: d.Offering, Cluster: d.Cluster, Runs: timeseries.NewRuns(d.Util)}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
