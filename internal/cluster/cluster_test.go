package cluster

import (
	"fmt"
	"testing"
)

func TestDCMatchesTable1(t *testing.T) {
	s := DC(8)
	// "Two nodes have a lower relative CPU power, and two other nodes
	// have higher relative CPU power. The rest are unchanged."
	lower, higher, unchanged := 0, 0, 0
	for _, n := range s.Nodes {
		switch {
		case n.CPUPower < 1:
			lower++
		case n.CPUPower > 1:
			higher++
		default:
			unchanged++
		}
	}
	if lower != 2 || higher != 2 || unchanged != 4 {
		t.Fatalf("DC powers: %d lower, %d higher, %d unchanged", lower, higher, unchanged)
	}
	if s.MemoryConstrained() {
		t.Fatal("DC must have uniform memory/disk")
	}
	if !s.CPUVaried() {
		t.Fatal("DC must have varied CPU power")
	}
}

func TestIOMatchesTable1(t *testing.T) {
	s := IO(8)
	// "Half of the nodes have high I/O latency and small memories, but
	// all nodes have equal relative CPU power."
	constrained := 0
	for _, n := range s.Nodes {
		if n.CPUPower != 1 {
			t.Fatal("IO must have equal CPU power everywhere")
		}
		if n.DiskScale > 1 {
			if n.MemoryBytes >= s.Nodes[7].MemoryBytes {
				t.Fatal("slow-disk nodes must also have small memories")
			}
			constrained++
		}
	}
	if constrained != 4 {
		t.Fatalf("IO: %d constrained nodes, want 4", constrained)
	}
	if s.CPUVaried() {
		t.Fatal("IO must not vary CPU")
	}
	if !s.MemoryConstrained() {
		t.Fatal("IO must be memory constrained")
	}
}

func TestHY1MatchesTable1(t *testing.T) {
	s := HY1(8)
	// "Four nodes have varying relative CPU powers and the other four
	// have low I/O latencies and small memories."
	for i := 0; i < 4; i++ {
		if s.Nodes[i].CPUPower == 1 {
			t.Fatalf("node %d should have varied CPU power", i)
		}
	}
	for i := 4; i < 8; i++ {
		if s.Nodes[i].DiskScale >= 1 {
			t.Fatalf("node %d should have a low I/O latency", i)
		}
		if s.Nodes[i].MemoryBytes >= s.Nodes[0].MemoryBytes {
			t.Fatalf("node %d should have a small memory", i)
		}
	}
}

func TestHY2MatchesTable1(t *testing.T) {
	s := HY2(8)
	highLatency, largeMem := 0, 0
	for _, n := range s.Nodes {
		if n.DiskScale > 1 {
			highLatency++
		}
		if n.MemoryBytes > defaultMem {
			largeMem++
		}
	}
	if highLatency != 2 {
		t.Fatalf("HY2: %d high-latency nodes, want 2", highLatency)
	}
	if largeMem != 2 {
		t.Fatalf("HY2: %d large-memory nodes, want 2", largeMem)
	}
}

func TestNamed(t *testing.T) {
	for _, name := range []string{"DC", "IO", "HY1", "HY2"} {
		s, err := Named(name)
		if err != nil {
			t.Fatalf("Named(%s): %v", name, err)
		}
		if s.Name != name || s.N() != 8 {
			t.Fatalf("Named(%s) = %s/%d nodes", name, s.Name, s.N())
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Named(%s) invalid: %v", name, err)
		}
	}
	if _, err := Named("XX"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestNamedAllOrder(t *testing.T) {
	all := NamedAll()
	want := []string{"DC", "IO", "HY1", "HY2"}
	if len(all) != 4 {
		t.Fatalf("NamedAll returned %d", len(all))
	}
	for i, s := range all {
		if s.Name != want[i] {
			t.Fatalf("NamedAll[%d] = %s, want %s", i, s.Name, want[i])
		}
	}
}

func TestSweep17(t *testing.T) {
	specs := Sweep17()
	if len(specs) != 17 {
		t.Fatalf("Sweep17 returned %d", len(specs))
	}
	names := make(map[string]bool)
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Fatalf("duplicate sweep name %s", s.Name)
		}
		names[s.Name] = true
		if s.N() != 8 {
			t.Fatalf("%s has %d nodes", s.Name, s.N())
		}
	}
	for _, want := range []string{"DC", "IO", "HY1", "HY2"} {
		if !names[want] {
			t.Fatalf("Sweep17 missing %s", want)
		}
	}
}

func TestSweep12SubsetOfSweep17(t *testing.T) {
	all := make(map[string]bool)
	for _, s := range Sweep17() {
		all[s.Name] = true
	}
	specs := Sweep12()
	if len(specs) != 12 {
		t.Fatalf("Sweep12 returned %d", len(specs))
	}
	for _, s := range specs {
		if !all[s.Name] {
			t.Fatalf("Sweep12 config %s not in Sweep17", s.Name)
		}
		if !s.MemoryConstrained() {
			t.Fatalf("Sweep12 config %s is not I/O-relevant", s.Name)
		}
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "empty"},
		{Name: "cpu", Nodes: []NodeSpec{{CPUPower: 0, MemoryBytes: 1, DiskScale: 1}}},
		{Name: "mem", Nodes: []NodeSpec{{CPUPower: 1, MemoryBytes: 0, DiskScale: 1}}},
		{Name: "disk", Nodes: []NodeSpec{{CPUPower: 1, MemoryBytes: 1, DiskScale: 0}}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %s validated", s.Name)
		}
	}
}

func TestHomogeneous(t *testing.T) {
	u := uniform("u", 4, defaultMem)
	if !u.Homogeneous() {
		t.Fatal("uniform spec must be homogeneous")
	}
	u.Nodes[2].CPUPower = 2
	if u.Homogeneous() {
		t.Fatal("modified spec must not be homogeneous")
	}
}

func TestTotals(t *testing.T) {
	s := uniform("t", 4, 100)
	s.Nodes[0].CPUPower = 2
	if s.TotalPower() != 5 {
		t.Fatalf("TotalPower = %v", s.TotalPower())
	}
	if s.TotalMemory() != 400 {
		t.Fatalf("TotalMemory = %v", s.TotalMemory())
	}
}

func TestDiskParamsScaled(t *testing.T) {
	s := IO(8)
	slow := s.DiskParams(0)
	fast := s.DiskParams(7)
	if slow.ReadSeek <= fast.ReadSeek {
		t.Fatal("node 0's disk must be slower than node 7's")
	}
	if slow.ReadSeek != fast.ReadSeek*3 {
		t.Fatalf("scale wrong: %v vs %v", slow.ReadSeek, fast.ReadSeek)
	}
}

func TestWithSharedDisk(t *testing.T) {
	base := IO(8)
	shared := base.WithSharedDisk()
	if !shared.SharedDisk {
		t.Fatal("flag not set")
	}
	if base.SharedDisk {
		t.Fatal("original mutated")
	}
	if shared.Name != "IO-shared" {
		t.Fatalf("name %q", shared.Name)
	}
	// Node slices must be independent copies.
	shared.Nodes[0].CPUPower = 99
	if base.Nodes[0].CPUPower == 99 {
		t.Fatal("nodes aliased")
	}
	if err := shared.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDCSmallClusters(t *testing.T) {
	// Below four nodes the fast pair overwrites the slow pair; the
	// corpus digests depend on exactly these powers.
	for n, want := range map[int][]float64{
		2: {1.6, 2.0},
		3: {0.5, 1.6, 2.0},
		4: {0.5, 0.6, 1.6, 2.0},
	} {
		s := DC(n)
		for i, node := range s.Nodes {
			if node.CPUPower != want[i] {
				t.Errorf("DC(%d) node %d power %v, want %v", n, i, node.CPUPower, want[i])
			}
		}
	}
	for _, n := range []int{1, 0, -1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("cluster: DC needs at least 2 nodes, got %d", n); msg != want {
					t.Errorf("DC(%d) panicked with %q, want %q", n, msg, want)
				}
			}()
			DC(n)
		}()
	}
}
