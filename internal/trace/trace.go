// Package trace defines the VM trace schema used throughout the Coach
// reproduction and a statistical generator that synthesizes traces with the
// distributional properties the paper reports for Azure (§2).
//
// The paper collected two weeks of telemetry for over one million opaque
// VMs: allocation/deallocation times, resource allocation, host server, and
// per-resource maximum utilization at 5-minute intervals. We reproduce that
// schema exactly; the generator is the substitute for the proprietary
// production trace (see docs/DESIGN.md §2).
package trace

import (
	"fmt"
	"time"

	"github.com/coach-oss/coach/internal/resources"
	"github.com/coach-oss/coach/internal/timeseries"
)

// Offering distinguishes how the VM was sold (§3.3 lists it as a
// prediction feature: utilization tends to be higher for IaaS VMs).
type Offering int

const (
	IaaS Offering = iota
	PaaS
)

func (o Offering) String() string {
	if o == IaaS {
		return "IaaS"
	}
	return "PaaS"
}

// SubscriptionType is the customer-subscription class (§3.3: e.g.,
// internal production vs. test).
type SubscriptionType int

const (
	Production SubscriptionType = iota
	Test
	InternalProduction
)

func (t SubscriptionType) String() string {
	switch t {
	case Production:
		return "production"
	case Test:
		return "test"
	case InternalProduction:
		return "internal-production"
	default:
		return fmt.Sprintf("SubscriptionType(%d)", int(t))
	}
}

// VMConfig is a sellable VM shape (series + size), e.g. a 4-core/16GB
// general-purpose instance. Configurations are one of the similarity
// groupings studied in Fig. 12.
type VMConfig struct {
	Name  string
	Alloc resources.Vector
}

// Subscription is a customer subscription. VMs in the same subscription
// tend to run similar workloads (§2.3, Fig. 12), which the generator models
// by assigning each subscription a behavioural archetype.
type Subscription struct {
	ID        int
	Type      SubscriptionType
	Archetype int // index into the generator's archetype table
}

// VM is one virtual machine record.
type VM struct {
	ID           int
	Subscription int // Subscription.ID
	Config       int // index into Trace.Configs
	Alloc        resources.Vector
	// Start and End are 5-minute sample indexes relative to the trace
	// start; the VM is live for samples [Start, End).
	Start, End int
	Offering   Offering
	// Runs is the VM's fractional utilization of every resource kind,
	// stored as vector runs of basis-point codes; sample i covers trace
	// sample Start+i.
	Runs timeseries.Runs
	// Cluster is the home cluster index (0-based) the VM was observed in.
	Cluster int
}

// DurationSamples returns the VM lifetime in 5-minute samples.
func (vm *VM) DurationSamples() int { return vm.End - vm.Start }

// Duration returns the VM lifetime as a time.Duration.
func (vm *VM) Duration() time.Duration {
	return time.Duration(vm.DurationSamples()) * timeseries.SampleMinutes * time.Minute
}

// Cores returns the CPU allocation in cores.
func (vm *VM) Cores() float64 { return vm.Alloc[resources.CPU] }

// MemoryGB returns the memory allocation in GB.
func (vm *VM) MemoryGB() float64 { return vm.Alloc[resources.Memory] }

// LongRunning reports whether the VM lasts more than one day, the paper's
// focus population (§2.1: such VMs consume ~96% of core-hours).
func (vm *VM) LongRunning() bool {
	return vm.DurationSamples() > timeseries.SamplesPerDay
}

// HomeShard returns the shard of an n-shard fleet that hosts the VM: its
// home cluster folded modulo n, so traces generated for more clusters
// replay (and serve) on smaller fleets.
func (vm *VM) HomeShard(n int) int {
	c := vm.Cluster % n
	if c < 0 {
		c += n
	}
	return c
}

// AliveAt reports whether the VM is live at trace sample t.
func (vm *VM) AliveAt(t int) bool { return t >= vm.Start && t < vm.End }

// UtilAt returns the fractional utilization of kind k at trace sample t,
// or 0 when the VM is not live at t.
func (vm *VM) UtilAt(k resources.Kind, t int) float64 {
	if !vm.AliveAt(t) || t-vm.Start >= vm.Runs.Len() {
		return 0
	}
	return vm.Runs.At(t - vm.Start)[k]
}

// DemandAt returns the absolute resource demand vector at trace sample t
// (allocation x utilization fraction).
func (vm *VM) DemandAt(t int) resources.Vector {
	var u resources.Vector
	if vm.AliveAt(t) && t-vm.Start < vm.Runs.Len() {
		u = vm.Runs.At(t - vm.Start)
	}
	return vm.Alloc.Mul(u)
}

// ResourceHours returns allocation x lifetime for kind k, in unit-hours
// (core-hours for CPU, GB-hours for memory, ...). This is the paper's
// "resource hours" weighting (§2.1).
func (vm *VM) ResourceHours(k resources.Kind) float64 {
	hours := float64(vm.DurationSamples()) * timeseries.SampleMinutes / 60
	return vm.Alloc[k] * hours
}

// Trace is a complete VM trace over a fixed horizon.
type Trace struct {
	// Horizon is the number of 5-minute samples covered.
	Horizon int
	// StartWeekday is the weekday of trace sample 0.
	StartWeekday  time.Weekday
	Configs       []VMConfig
	Subscriptions []Subscription
	VMs           []VM
	// Clusters is the number of distinct home clusters referenced by VMs.
	Clusters int
}

// Days returns the horizon length in days.
func (tr *Trace) Days() int { return tr.Horizon / timeseries.SamplesPerDay }

// WeekdayAt returns the weekday at trace sample t.
func (tr *Trace) WeekdayAt(t int) time.Weekday {
	day := t / timeseries.SamplesPerDay
	return time.Weekday((int(tr.StartWeekday) + day) % 7)
}

// LongRunning returns the subset of VMs lasting more than one day.
func (tr *Trace) LongRunning() []*VM {
	var out []*VM
	for i := range tr.VMs {
		if tr.VMs[i].LongRunning() {
			out = append(out, &tr.VMs[i])
		}
	}
	return out
}

// CheckIDsAreIndices reports the first VM whose id is not its index in
// tr.VMs. The simulator and the serving layer index their per-VM tables
// by id, so both reject a trace that breaks this rule.
func (tr *Trace) CheckIDsAreIndices() error {
	for i := range tr.VMs {
		if tr.VMs[i].ID != i {
			return fmt.Errorf("trace: VM at index %d has id %d; ids must be indices into the trace", i, tr.VMs[i].ID)
		}
	}
	return nil
}

// Validate checks trace internal consistency: sample ranges, series
// lengths, and index references. It is used by tests and by readers of
// externally supplied traces.
func (tr *Trace) Validate() error {
	if tr.Horizon <= 0 {
		return fmt.Errorf("trace: non-positive horizon %d", tr.Horizon)
	}
	for i := range tr.VMs {
		vm := &tr.VMs[i]
		if vm.Start < 0 || vm.End > tr.Horizon || vm.Start >= vm.End {
			return fmt.Errorf("trace: vm %d has invalid lifetime [%d,%d) in horizon %d", vm.ID, vm.Start, vm.End, tr.Horizon)
		}
		if vm.Config < 0 || vm.Config >= len(tr.Configs) {
			return fmt.Errorf("trace: vm %d references unknown config %d", vm.ID, vm.Config)
		}
		if vm.Subscription < 0 || vm.Subscription >= len(tr.Subscriptions) {
			return fmt.Errorf("trace: vm %d references unknown subscription %d", vm.ID, vm.Subscription)
		}
		if !vm.Alloc.Positive() {
			return fmt.Errorf("trace: vm %d has non-positive allocation %v", vm.ID, vm.Alloc)
		}
		if got, want := vm.Runs.Len(), vm.DurationSamples(); got != want {
			return fmt.Errorf("trace: vm %d utilization has %d samples, want %d", vm.ID, got, want)
		}
		for j := 0; j < vm.Runs.NumRuns(); j++ {
			for _, k := range resources.Kinds {
				if c := vm.Runs.Code(j)[k]; c > timeseries.CodeScale {
					return fmt.Errorf("trace: vm %d %v utilization code %d above %d", vm.ID, k, c, timeseries.CodeScale)
				}
			}
		}
	}
	return nil
}
