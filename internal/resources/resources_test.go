package resources

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func vec(c, m, n, s float64) Vector { return NewVector(c, m, n, s) }

func TestKindString(t *testing.T) {
	cases := map[Kind]string{CPU: "CPU", Memory: "Memory", Network: "Network", SSD: "SSD"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestKindUnit(t *testing.T) {
	if CPU.Unit() != "cores" || Memory.Unit() != "GB" || Network.Unit() != "Gbps" || SSD.Unit() != "GB" {
		t.Errorf("unexpected units: %s %s %s %s", CPU.Unit(), Memory.Unit(), Network.Unit(), SSD.Unit())
	}
}

func TestKindsOrder(t *testing.T) {
	if len(Kinds) != int(NumKinds) {
		t.Fatalf("Kinds has %d entries, want %d", len(Kinds), NumKinds)
	}
	for i, k := range Kinds {
		if int(k) != i {
			t.Errorf("Kinds[%d] = %v", i, k)
		}
	}
}

func TestNewVectorGet(t *testing.T) {
	v := vec(8, 32, 10, 300)
	if v[CPU] != 8 || v[Memory] != 32 || v[Network] != 10 || v[SSD] != 300 {
		t.Errorf("NewVector fields wrong: %v", v)
	}
}

func TestAddSub(t *testing.T) {
	a := vec(1, 2, 3, 4)
	b := vec(10, 20, 30, 40)
	if got := a.Add(b); got != vec(11, 22, 33, 44) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != vec(9, 18, 27, 36) {
		t.Errorf("Sub = %v", got)
	}
}

func TestScaleMul(t *testing.T) {
	a := vec(1, 2, 3, 4)
	if got := a.Scale(2); got != vec(2, 4, 6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Mul(vec(2, 0.5, 1, 0)); got != vec(2, 1, 3, 0) {
		t.Errorf("Mul = %v", got)
	}
}

func TestMaxMin(t *testing.T) {
	a := vec(1, 20, 3, 40)
	b := vec(10, 2, 30, 4)
	if got := a.Max(b); got != vec(10, 20, 30, 40) {
		t.Errorf("Max = %v", got)
	}
}

func TestClampNonNegative(t *testing.T) {
	if got := vec(-1, 2, -3, 0).ClampNonNegative(); got != vec(0, 2, 0, 0) {
		t.Errorf("ClampNonNegative = %v", got)
	}
}

func TestFitsIn(t *testing.T) {
	cap := vec(16, 64, 20, 1000)
	if !vec(8, 32, 10, 300).FitsIn(cap) {
		t.Error("should fit")
	}
	if vec(8, 65, 10, 300).FitsIn(cap) {
		t.Error("memory exceeds capacity: must not fit")
	}
	if !cap.FitsIn(cap) {
		t.Error("capacity must fit itself")
	}
}

func TestIsZeroPositive(t *testing.T) {
	if !(Vector{}).IsZero() {
		t.Error("zero vector IsZero false")
	}
	if vec(0, 0, 0, 1).IsZero() {
		t.Error("nonzero vector IsZero true")
	}
	if !vec(1, 1, 1, 1).Positive() {
		t.Error("all-positive vector Positive false")
	}
	if vec(1, 0, 1, 1).Positive() {
		t.Error("vector with zero Positive true")
	}
}

func TestUtilization(t *testing.T) {
	got := vec(8, 32, 0, 0).Utilization(vec(16, 64, 0, 100))
	want := vec(0.5, 0.5, 0, 0)
	if got != want {
		t.Errorf("Utilization = %v, want %v", got, want)
	}
}

func TestString(t *testing.T) {
	s := vec(8, 32, 10, 300).String()
	for _, want := range []string{"8 cores", "32 GB", "10 Gbps", "300 GB ssd"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// Property: Add is commutative.
func TestAddCommutativeProperty(t *testing.T) {
	f := func(a, b Vector) bool { return a.Add(b) == b.Add(a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Sub is the inverse of Add (over realistic magnitudes; at
// ~1e308 floating-point cancellation voids the identity).
func TestAddSubRoundtripProperty(t *testing.T) {
	bound := func(v Vector) Vector {
		for i := range v {
			v[i] = math.Mod(v[i], 1e6)
			if math.IsNaN(v[i]) {
				v[i] = 0
			}
		}
		return v
	}
	f := func(a, b Vector) bool {
		a, b = bound(a), bound(b)
		got := a.Add(b).Sub(b)
		for i := range got {
			if math.Abs(got[i]-a[i]) > 1e-6*(1+math.Abs(a[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ClampNonNegative is idempotent and yields no negatives.
func TestClampIdempotentProperty(t *testing.T) {
	f := func(a Vector) bool {
		c := a.ClampNonNegative()
		for i := range c {
			if c[i] < 0 {
				return false
			}
		}
		return c == c.ClampNonNegative()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Max(a,b) fits neither below a nor below b.
func TestMaxDominatesProperty(t *testing.T) {
	f := func(a, b Vector) bool {
		m := a.Max(b)
		return a.FitsIn(m) && b.FitsIn(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 10 {
		t.Fatalf("Table1 has %d rows, want 10 (paper Table 1)", len(rows))
	}
	byName := map[string]Fungibility{}
	for _, r := range rows {
		byName[r.Name] = r.Fungibility
	}
	for name, want := range map[string]Fungibility{
		"CPU":              Fungible,
		"Memory space":     NonFungible,
		"GPU":              NonFungible,
		"Power":            Fungible,
		"Memory bandwidth": Fungible,
	} {
		if got, ok := byName[name]; !ok || got != want {
			t.Errorf("Table1[%q] = %v (present=%v), want %v", name, got, ok, want)
		}
	}
}

func TestKindFungibility(t *testing.T) {
	if KindFungibility(CPU) != Fungible || KindFungibility(Network) != Fungible {
		t.Error("CPU and network must be fungible")
	}
	if KindFungibility(Memory) != NonFungible || KindFungibility(SSD) != NonFungible {
		t.Error("memory and SSD space must be non-fungible")
	}
}

func TestFungibilityString(t *testing.T) {
	if Fungible.String() != "fungible" || NonFungible.String() != "non-fungible" {
		t.Error("fungibility strings wrong")
	}
}

func TestUnits(t *testing.T) {
	for _, c := range []struct {
		in   float64
		want int64
	}{
		{0, 0}, {1, PerUnit}, {0.25, PerUnit / 4}, {0.1 + 0.2, 12000}, {-(0.1 + 0.2), -12000},
		{0.4 / PerUnit, 0}, {0.6 / PerUnit, 1}, {-0.6 / PerUnit, -1}, {281.6, 11264000},
	} {
		if got := ToUnit(c.in); got != c.want {
			t.Errorf("ToUnit(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	// Amounts on the grid convert back to the same float.
	v := vec(96, 281.6, 0.3, 16384)
	if got := v.Units().Vector(); got != v {
		t.Errorf("%v round-trips to %v", v, got)
	}
	// Sums of units do not depend on the order of their terms.
	a, b, c := vec(0.1, 0.2, 0.3, 0.7).Units(), vec(0.2, 0.1, 0.7, 0.3).Units(), vec(0.3, 0.7, 0.1, 0.2).Units()
	if a.Add(b).Add(c) != c.Add(a).Add(b) || a.Add(b).Sub(b) != a {
		t.Errorf("unit sums depend on order: %v, %v", a.Add(b).Add(c), c.Add(a).Add(b))
	}
}
