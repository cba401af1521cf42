// Package cluster describes the emulated heterogeneous architecture of
// Figure 2: n nodes, each with its own relative CPU power, memory
// capacity, and local-disk I/O latency, joined by a network.
//
// It also defines the four named configurations of Table 1 (DC, IO, HY1,
// HY2) and the generators for the seventeen non-prefetching and twelve
// prefetching emulated architectures the paper sweeps in Figure 9.
package cluster

import (
	"fmt"

	"mheta/internal/disksim"
	"mheta/internal/netsim"
)

// NodeSpec is one node of the emulated cluster.
type NodeSpec struct {
	// CPUPower is the node's relative CPU power (§3.2). The emulator
	// charges work/CPUPower seconds per unit of work whose baseline cost
	// is one second on a power-1.0 node; the paper emulated a slower CPU
	// "by forcing the process to do extra work".
	CPUPower float64
	// MemoryBytes is the physical memory available to the application for
	// ICLAs ("a limit on the size of memory that applications can use to
	// store their ICLAs").
	MemoryBytes int64
	// DiskScale multiplies the baseline disk latencies; >1 is a slower
	// disk ("artificially increasing or decreasing the ICLA sizes read or
	// written" has the same effect as scaling the latency).
	DiskScale float64
}

// Spec is a full cluster description.
type Spec struct {
	Name  string
	Nodes []NodeSpec
	Net   netsim.Params
	Disk  disksim.Params // baseline disk, scaled per node by DiskScale
	// SharedDisk switches from per-node commodity disks to one global
	// disk shared by all processors — the §3.2 extension ("as opposed to
	// a RAID system or global disk used by all the processors—but our
	// basic model could be extended to support either"). Sharing is
	// modelled as fair bandwidth division among the nodes that stream out
	// of core concurrently.
	SharedDisk bool
}

// WithSharedDisk returns a copy of the spec using a global shared disk.
func (s Spec) WithSharedDisk() Spec {
	cp := s
	cp.Nodes = append([]NodeSpec(nil), s.Nodes...)
	cp.SharedDisk = true
	cp.Name = s.Name + "-shared"
	return cp
}

// N returns the node count.
func (s Spec) N() int { return len(s.Nodes) }

// DiskParams returns node i's disk parameters (baseline scaled).
func (s Spec) DiskParams(i int) disksim.Params {
	return s.Disk.Scale(s.Nodes[i].DiskScale)
}

// Validate checks the spec for obvious misconfiguration.
func (s Spec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("cluster %q: no nodes", s.Name)
	}
	for i, n := range s.Nodes {
		if n.CPUPower <= 0 {
			return fmt.Errorf("cluster %q node %d: CPUPower %v <= 0", s.Name, i, n.CPUPower)
		}
		if n.MemoryBytes <= 0 {
			return fmt.Errorf("cluster %q node %d: MemoryBytes %d <= 0", s.Name, i, n.MemoryBytes)
		}
		if n.DiskScale <= 0 {
			return fmt.Errorf("cluster %q node %d: DiskScale %v <= 0", s.Name, i, n.DiskScale)
		}
	}
	return nil
}

// Homogeneous reports whether all nodes are identical — used by the
// distribution spectrum logic, which skips Bal when CPU powers are equal
// and skips I-C when no node is memory constrained (§5.1).
func (s Spec) Homogeneous() bool {
	for _, n := range s.Nodes[1:] {
		if n != s.Nodes[0] {
			return false
		}
	}
	return true
}

// CPUVaried reports whether relative CPU powers differ across nodes.
func (s Spec) CPUVaried() bool {
	for _, n := range s.Nodes[1:] {
		if n.CPUPower != s.Nodes[0].CPUPower {
			return true
		}
	}
	return false
}

// MemoryConstrained reports whether any node has less memory or a slower
// disk than the most capable node — i.e. whether I/O is a concern for the
// distribution spectrum (§5.1).
func (s Spec) MemoryConstrained() bool {
	for _, n := range s.Nodes[1:] {
		if n.MemoryBytes != s.Nodes[0].MemoryBytes || n.DiskScale != s.Nodes[0].DiskScale {
			return true
		}
	}
	return false
}

// TotalPower sums relative CPU power across nodes.
func (s Spec) TotalPower() float64 {
	p := 0.0
	for _, n := range s.Nodes {
		p += n.CPUPower
	}
	return p
}

// TotalMemory sums memory capacity across nodes.
func (s Spec) TotalMemory() int64 {
	var m int64
	for _, n := range s.Nodes {
		m += n.MemoryBytes
	}
	return m
}

// uniform builds a homogeneous n-node cluster around the given baselines.
func uniform(name string, n int, mem int64) Spec {
	nodes := make([]NodeSpec, n)
	for i := range nodes {
		nodes[i] = NodeSpec{CPUPower: 1.0, MemoryBytes: mem, DiskScale: 1.0}
	}
	return Spec{Name: name, Nodes: nodes, Net: netsim.DefaultParams(), Disk: disksim.DefaultParams()}
}

// Baseline memory used across configurations. Datasets in the experiment
// harness are sized so that a block distribution leaves constrained nodes
// out of core, like the paper's setup.
const (
	defaultMem = 8 << 20 // 8 MiB per node available for ICLAs
	smallMem   = 1 << 20 // "small memory" nodes
	largeMem   = 32 << 20
)

// DC returns the "different CPUs" configuration of Table 1: two nodes
// with lower relative CPU power, two with higher, the rest unchanged. It
// panics for n < 2: the slow pair and the fast pair share nodes below
// four, and there are not two nodes to give either pair below two.
func DC(n int) Spec {
	if n < 2 {
		panic(fmt.Sprintf("cluster: DC needs at least 2 nodes, got %d", n))
	}
	s := uniform("DC", n, defaultMem)
	s.Nodes[0].CPUPower = 0.5
	s.Nodes[1].CPUPower = 0.6
	s.Nodes[n-1].CPUPower = 2.0
	s.Nodes[n-2].CPUPower = 1.6
	return s
}

// IO returns the "I/O-induced" configuration of Table 1: half the nodes
// have high I/O latency and small memories; CPU power is equal everywhere.
func IO(n int) Spec {
	s := uniform("IO", n, defaultMem)
	for i := 0; i < n/2; i++ {
		s.Nodes[i].MemoryBytes = smallMem
		s.Nodes[i].DiskScale = 3.0
	}
	return s
}

// HY1 returns the first hybrid configuration of Table 1: four nodes with
// varying relative CPU powers and four with low I/O latency but small
// memories.
func HY1(n int) Spec {
	s := uniform("HY1", n, defaultMem)
	powers := []float64{0.5, 0.8, 1.4, 2.0}
	for i := 0; i < 4 && i < n; i++ {
		s.Nodes[i].CPUPower = powers[i%len(powers)]
	}
	for i := 4; i < n; i++ {
		s.Nodes[i].DiskScale = 0.5 // low I/O latency
		s.Nodes[i].MemoryBytes = smallMem
	}
	return s
}

// HY2 returns the second hybrid configuration of Table 1: four nodes with
// varying relative CPU power, two with high I/O latencies, and two with
// large memories.
func HY2(n int) Spec {
	s := uniform("HY2", n, defaultMem)
	powers := []float64{0.6, 0.9, 1.3, 1.8}
	for i := 0; i < 4 && i < n; i++ {
		s.Nodes[i].CPUPower = powers[i%len(powers)]
	}
	if n >= 6 {
		s.Nodes[4].DiskScale = 3.5
		s.Nodes[5].DiskScale = 3.0
	}
	if n >= 8 {
		s.Nodes[6].MemoryBytes = largeMem
		s.Nodes[7].MemoryBytes = largeMem
	}
	return s
}

// Named returns the Table 1 configuration with the given name at the
// paper's scale of eight nodes.
func Named(name string) (Spec, error) {
	switch name {
	case "DC":
		return DC(8), nil
	case "IO":
		return IO(8), nil
	case "HY1":
		return HY1(8), nil
	case "HY2":
		return HY2(8), nil
	default:
		return Spec{}, fmt.Errorf("cluster: unknown configuration %q (want DC, IO, HY1 or HY2)", name)
	}
}

// NamedAll returns the four Table 1 configurations in paper order.
func NamedAll() []Spec {
	return []Spec{DC(8), IO(8), HY1(8), HY2(8)}
}
