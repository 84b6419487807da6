package cluster

import (
	"testing"

	"github.com/coach-oss/coach/internal/resources"
)

func TestGenerations(t *testing.T) {
	if len(Generations) != 4 {
		t.Fatalf("%d generations, want 4 (paper §2 methodology)", len(Generations))
	}
	for i, g := range Generations {
		if g.Generation != i+1 {
			t.Errorf("generation %d numbered %d", i, g.Generation)
		}
		if !g.Capacity.Positive() {
			t.Errorf("generation %s has non-positive capacity", g.Name)
		}
	}
}

func TestDefaultClusters(t *testing.T) {
	cs := DefaultClusters(3)
	if len(cs) != 10 {
		t.Fatalf("%d clusters, want 10 (C1-C10)", len(cs))
	}
	names := map[string]bool{}
	for _, c := range cs {
		if names[c.Name] {
			t.Errorf("duplicate cluster name %s", c.Name)
		}
		names[c.Name] = true
		if c.Servers != 3 {
			t.Errorf("%s has %d servers, want 3", c.Name, c.Servers)
		}
	}
	// C1 is memory-rich (CPU-bottlenecked); C4 is memory-poor
	// (memory-bottlenecked), per Fig. 5.
	var c1, c4 Config
	for _, c := range cs {
		if c.Name == "C1" {
			c1 = c
		}
		if c.Name == "C4" {
			c4 = c
		}
	}
	gbPerCore := func(c Config) float64 { return c.Spec.Capacity[resources.Memory] / c.Spec.Capacity[resources.CPU] }
	if gbPerCore(c1) <= gbPerCore(c4) {
		t.Errorf("C1 GB/core %v must exceed C4 %v", gbPerCore(c1), gbPerCore(c4))
	}
}

func TestDefaultClustersMinServers(t *testing.T) {
	cs := DefaultClusters(0)
	for _, c := range cs {
		if c.Servers != 1 {
			t.Errorf("serversPer<1 must clamp to 1, got %d", c.Servers)
		}
	}
}

func TestNewFleet(t *testing.T) {
	f := NewFleet(DefaultClusters(2))
	if len(f.Servers) != 20 {
		t.Fatalf("%d servers, want 20", len(f.Servers))
	}
	seen := map[int]bool{}
	for i := range f.Servers {
		s := &f.Servers[i]
		if seen[s.ID] {
			t.Errorf("duplicate server ID %d", s.ID)
		}
		seen[s.ID] = true
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterServers: cluster ci holds exactly its configured servers.
func TestClusterServers(t *testing.T) {
	f := NewFleet(DefaultClusters(2))
	per := make([]int, len(f.Clusters))
	for i := range f.Servers {
		per[f.Servers[i].Cluster]++
	}
	for ci, c := range f.Clusters {
		if per[ci] != c.Servers {
			t.Errorf("cluster %s holds %d servers, want %d", c.Name, per[ci], c.Servers)
		}
	}
}

func TestTotalCapacity(t *testing.T) {
	f := NewFleet([]Config{
		{Name: "A", Spec: Generations[0], Servers: 2},
	})
	want := Generations[0].Capacity.Scale(2)
	if got := f.TotalCapacity(); got != want {
		t.Errorf("TotalCapacity = %v, want %v", got, want)
	}
}

func TestValidateCatchesBadServer(t *testing.T) {
	f := NewFleet(DefaultClusters(1))
	f.Servers[0].Cluster = 99
	if err := f.Validate(); err == nil {
		t.Error("dangling cluster reference must fail")
	}
}
