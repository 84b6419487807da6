// Package resources defines the resource kinds managed by Coach and the
// vector arithmetic used throughout scheduling and simulation.
//
// Coach manages all server resources holistically (paper §1, §2.2). A
// resource amount is always expressed in the natural unit of its kind:
// cores for CPU, GB for memory, Gbps for network bandwidth and GB for
// local SSD space. Utilization, in contrast, is expressed as a fraction of
// the allocation in [0, 1] (see internal/timeseries).
package resources

import (
	"fmt"
	"math"
	"strings"
)

// Kind identifies one of the managed resource types.
type Kind int

// The resource kinds Coach oversubscribes, in the order used by Vector.
const (
	CPU      Kind = iota // cores (hyperthreads normalized to cores)
	Memory               // GB of DRAM
	Network              // Gbps of NIC bandwidth
	SSD                  // GB of local SSD space
	NumKinds             // number of resource kinds; not itself a kind
)

// Kinds lists every managed resource kind in canonical order.
var Kinds = [NumKinds]Kind{CPU, Memory, Network, SSD}

// String returns the short human-readable name of the kind.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case Memory:
		return "Memory"
	case Network:
		return "Network"
	case SSD:
		return "SSD"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Unit returns the unit the kind is measured in.
func (k Kind) Unit() string {
	switch k {
	case CPU:
		return "cores"
	case Memory:
		return "GB"
	case Network:
		return "Gbps"
	case SSD:
		return "GB"
	default:
		return "?"
	}
}

// Vector holds one amount per resource kind, indexed by Kind.
// The zero value is the empty allocation.
type Vector [NumKinds]float64

// NewVector builds a vector from explicit per-kind amounts.
func NewVector(cpu, memory, network, ssd float64) Vector {
	return Vector{CPU: cpu, Memory: memory, Network: network, SSD: ssd}
}

// Add returns the element-wise sum v + o.
func (v Vector) Add(o Vector) Vector {
	for i := range v {
		v[i] += o[i]
	}
	return v
}

// Sub returns the element-wise difference v - o.
func (v Vector) Sub(o Vector) Vector {
	for i := range v {
		v[i] -= o[i]
	}
	return v
}

// Scale returns v with every element multiplied by f.
func (v Vector) Scale(f float64) Vector {
	for i := range v {
		v[i] *= f
	}
	return v
}

// Mul returns the element-wise product v * o. It is the conversion from
// fractional utilization (o) to absolute demand given an allocation (v).
func (v Vector) Mul(o Vector) Vector {
	for i := range v {
		v[i] *= o[i]
	}
	return v
}

// Max returns the element-wise maximum of v and o.
func (v Vector) Max(o Vector) Vector {
	for i := range v {
		if o[i] > v[i] {
			v[i] = o[i]
		}
	}
	return v
}

// ClampNonNegative returns v with negative elements replaced by zero.
func (v Vector) ClampNonNegative() Vector {
	for i := range v {
		if v[i] < 0 {
			v[i] = 0
		}
	}
	return v
}

// FitsIn reports whether every element of v is at most the corresponding
// element of capacity. It is the feasibility check used by vector
// bin-packing schedulers (paper §3.3).
func (v Vector) FitsIn(capacity Vector) bool {
	for i := range v {
		if v[i] > capacity[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every element is exactly zero.
func (v Vector) IsZero() bool {
	for i := range v {
		if v[i] != 0 {
			return false
		}
	}
	return true
}

// Positive reports whether every element is strictly greater than zero.
func (v Vector) Positive() bool {
	for i := range v {
		if v[i] <= 0 {
			return false
		}
	}
	return true
}

// Utilization returns, per kind, v[k]/capacity[k] (0 when the capacity is
// zero). It converts absolute demand back into fractions of a server.
func (v Vector) Utilization(capacity Vector) Vector {
	var out Vector
	for i := range v {
		if capacity[i] > 0 {
			out[i] = v[i] / capacity[i]
		}
	}
	return out
}

// PerUnit counts of Units make one natural unit: a quarter unit (every
// allocation's step) times a basis point. Every CoachVM amount and server
// capacity is a whole count, so sums of Units are exact and order-free.
const PerUnit = 40000

// Quarters returns v in quarter units, the step of every allocation;
// ok is false unless every element is a whole count of quarters in
// [0, 2³¹). With a utilization code in basis points, quarters × code is
// a demand in Units, exactly.
func (v Vector) Quarters() (q [NumKinds]int32, ok bool) {
	for i, x := range v {
		f := x * 4
		if !(f >= 0 && f < 1<<31) || f != math.Trunc(f) {
			return q, false
		}
		q[i] = int32(f)
	}
	return q, true
}

// Units holds one integer amount per resource kind, in counts of
// 1/PerUnit of the kind's natural unit.
type Units [NumKinds]int64

// ToUnit rounds amount to the nearest count of 1/PerUnit, halves away
// from zero (adding a half and truncating: a third the cost of math.Round).
func ToUnit(amount float64) int64 {
	u := amount * PerUnit
	if u < 0 {
		return -int64(0.5 - u)
	}
	return int64(u + 0.5)
}

// Units rounds every element of v to the nearest count of 1/PerUnit.
func (v Vector) Units() Units {
	var u Units
	for i := range v {
		u[i] = ToUnit(v[i])
	}
	return u
}

// Add returns the element-wise sum u + o.
func (u Units) Add(o Units) Units {
	for i := range u {
		u[i] += o[i]
	}
	return u
}

// Sub returns the element-wise difference u - o.
func (u Units) Sub(o Units) Units {
	for i := range u {
		u[i] -= o[i]
	}
	return u
}

// Vector converts u back to natural units.
func (u Units) Vector() Vector {
	var v Vector
	for i := range u {
		v[i] = float64(u[i]) / PerUnit
	}
	return v
}

// String renders the vector with units, e.g.
// "{8 cores, 32 GB, 10 Gbps, 300 GB ssd}".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range Kinds {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g %s", v[k], k.Unit())
		if k == SSD {
			b.WriteString(" ssd")
		}
	}
	b.WriteByte('}')
	return b.String()
}
