// Package cluster models the server fleet: hardware generations, cluster
// configurations and inventories.
//
// The paper's trace covers "thousands of servers from four hardware
// generations" across "ten popular clusters" whose differing GB/core and
// network ratios drive the stranding variation of Fig. 5 (C1 almost
// exclusively CPU-bottlenecked, C4 memory-bottlenecked, C2 mixed).
package cluster

import (
	"fmt"

	"github.com/coach-oss/coach/internal/resources"
)

// ServerSpec describes one server hardware configuration.
type ServerSpec struct {
	Name string
	// Generation is the hardware generation (1..4).
	Generation int
	// Capacity is the sellable resource capacity of the server.
	Capacity resources.Vector
}

// Generations lists the four hardware generations in the fleet. The newest
// matches the paper's evaluation server (§4.1: 160 hyper-threaded cores
// normalized to 80, 512GB DRAM — we keep the paper's "core" normalization
// by using the HT count directly, as the trace does).
var Generations = []ServerSpec{
	{Name: "gen1", Generation: 1, Capacity: resources.NewVector(64, 256, 40, 4096)},
	{Name: "gen2", Generation: 2, Capacity: resources.NewVector(96, 384, 40, 8192)},
	{Name: "gen3", Generation: 3, Capacity: resources.NewVector(128, 512, 50, 8192)},
	{Name: "gen4", Generation: 4, Capacity: resources.NewVector(160, 512, 100, 16384)},
}

// Config describes one cluster: a name, a server spec and a server count.
type Config struct {
	Name    string
	Spec    ServerSpec
	Servers int
}

// scaled returns spec with memory and network capacity scaled; clusters
// differentiate on these ratios (§2.2: "servers in C4 have less memory
// relative to cores/network than the other clusters").
func scaled(base ServerSpec, name string, memFactor, netFactor float64) ServerSpec {
	c := base.Capacity
	c[resources.Memory] *= memFactor
	c[resources.Network] *= netFactor
	return ServerSpec{Name: name, Generation: base.Generation, Capacity: c}
}

// DefaultClusters returns the ten-cluster fleet used across experiments.
// Ratios are chosen so the stranding/bottleneck structure of Figs. 4 and 5
// emerges: C1 memory-rich (CPU-bound), C4 memory-poor (memory-bound),
// C2 network-constrained (mixed bottlenecks), the rest in between.
func DefaultClusters(serversPer int) []Config {
	if serversPer < 1 {
		serversPer = 1
	}
	return []Config{
		{Name: "C1", Spec: scaled(Generations[2], "gen3-memrich", 1.5, 1.0), Servers: serversPer},
		{Name: "C2", Spec: scaled(Generations[1], "gen2-netpoor", 1.0, 0.4), Servers: serversPer},
		{Name: "C3", Spec: scaled(Generations[2], "gen3-balanced", 1.0, 1.0), Servers: serversPer},
		{Name: "C4", Spec: scaled(Generations[3], "gen4-mempoor", 0.55, 1.0), Servers: serversPer},
		{Name: "C5", Spec: scaled(Generations[0], "gen1-balanced", 1.0, 1.0), Servers: serversPer},
		{Name: "C6", Spec: scaled(Generations[3], "gen4-balanced", 1.0, 1.0), Servers: serversPer},
		{Name: "C7", Spec: scaled(Generations[1], "gen2-memrich", 1.25, 1.0), Servers: serversPer},
		{Name: "C8", Spec: scaled(Generations[2], "gen3-mempoor", 0.75, 0.8), Servers: serversPer},
		{Name: "C9", Spec: scaled(Generations[0], "gen1-memrich", 1.4, 0.7), Servers: serversPer},
		{Name: "C10", Spec: scaled(Generations[3], "gen4-netrich", 0.9, 1.5), Servers: serversPer},
	}
}

// Server is one physical machine in a fleet.
type Server struct {
	ID      int
	Cluster int // index into the fleet's cluster list
	Spec    ServerSpec
}

// Capacity returns the server's total capacity vector.
func (s *Server) Capacity() resources.Vector { return s.Spec.Capacity }

// Fleet is an inventory of servers grouped into clusters.
type Fleet struct {
	Clusters []Config
	Servers  []Server
}

// NewFleet materializes the per-cluster server counts into a flat server
// inventory with stable IDs.
func NewFleet(clusters []Config) *Fleet {
	f := &Fleet{Clusters: clusters}
	id := 0
	for ci, c := range clusters {
		for i := 0; i < c.Servers; i++ {
			f.Servers = append(f.Servers, Server{ID: id, Cluster: ci, Spec: c.Spec})
			id++
		}
	}
	return f
}

// NumClusters returns the number of clusters in the fleet.
func (f *Fleet) NumClusters() int { return len(f.Clusters) }

// Shards groups the fleet's servers by cluster: one slice per cluster, in
// cluster order. Clusters never share VMs in the scheduler, so each group
// is an independently schedulable shard; the sim package replays shards
// concurrently.
func (f *Fleet) Shards() [][]*Server {
	shards := make([][]*Server, len(f.Clusters))
	for i := range f.Servers {
		ci := f.Servers[i].Cluster
		shards[ci] = append(shards[ci], &f.Servers[i])
	}
	return shards
}

// TotalCapacity returns the fleet-wide capacity vector.
func (f *Fleet) TotalCapacity() resources.Vector {
	var total resources.Vector
	for i := range f.Servers {
		total = total.Add(f.Servers[i].Capacity())
	}
	return total
}

// Validate checks inventory consistency.
func (f *Fleet) Validate() error {
	for i := range f.Servers {
		s := &f.Servers[i]
		if s.Cluster < 0 || s.Cluster >= len(f.Clusters) {
			return fmt.Errorf("cluster: server %d references unknown cluster %d", s.ID, s.Cluster)
		}
		if !s.Capacity().Positive() {
			return fmt.Errorf("cluster: server %d has non-positive capacity %v", s.ID, s.Capacity())
		}
	}
	return nil
}
